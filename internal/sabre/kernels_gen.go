// Code generated by kernelgen_test.go (go test ./internal/sabre/ -run TestGenerateKernels -update-kernels); DO NOT EDIT.
//
// Whole-program kernels for the fast engine. See kernelgen_test.go for
// the emission rules and kernel.go for how a kernel binds.

package sabre

// kernels lists the generated kernels that matchKernel tries.
var kernels = []*genKernel{&kernelKalman, &kernelFxBoresight}

// kernelKalman runs the Kalman program: 786 words, 11 leaders.
// Its code stops at word 36, where the SoftFloat library starts.
var kernelKalman = genKernel{
	fn: runKalman,
	words: []uint32{
		0x3780ff00, 0x5e800000, 0x36c00100, 0x37008000, 0x5f400010, 0x7280001e, 0x5c40000c, 0x5c800008,
		0x8bc0009d, 0x34840000, 0x5c40000c, 0x8bc00217, 0x68400014, 0x5c6c0000, 0x34b40000, 0x8bc0009b,
		0x5c800014, 0x8bc001ba, 0x34b40000, 0x8bc00092, 0x37440000, 0x58403f80, 0x04440000, 0x5c800014,
		0x8bc00092, 0x5c80000c, 0x8bc001b1, 0x5c800004, 0x8bc00089, 0x6840000c, 0x6b700000, 0x36ec0004,
		0x37300004, 0x36abffff, 0x883fffe3, 0x00000000, 0x7080000a, 0x55480020, 0x71400009, 0x1d848000,
		0x35400020, 0x09548000, 0x19454000, 0x71400002, 0x3d980001, 0x34580000, 0x8c3c0000, 0x7043ffff,
		0x34400001, 0x8c3c0000, 0x70400019, 0x35400000, 0x35810000, 0x84580003, 0x35540010, 0x44440010,
		0x59800100, 0x05980000, 0x84580003, 0x35540008, 0x44440008, 0x59801000, 0x05980000, 0x84580003,
		0x35540004, 0x44440004, 0x59804000, 0x05980000, 0x84580003, 0x35540002, 0x44440002, 0x78400002,
		0x35540001, 0x34540000, 0x8c3c0000, 0x34400020, 0x8c3c0000, 0x5940007f, 0x3d54ffff, 0x0d854000,
		0x49c40017, 0x39dc00ff, 0x360000ff, 0x75e00006, 0x71800005, 0x59400040, 0x05540000, 0x10454000,
		0x8c3c0000, 0x5940007f, 0x3d54ffff, 0x0d894000, 0x49c80017, 0x39dc00ff, 0x360000ff, 0x75e00006,
		0x71800005, 0x59400040, 0x05540000, 0x10494000, 0x8c3c0000, 0x58407fc0, 0x04440000, 0x8c3c0000,
		0x37bbfff0, 0x6bf80000, 0x6ab80004, 0x6af80008, 0x6b38000c, 0x36840000, 0x36c80000, 0x370c0000,
		0x354000fd, 0x82d4000b, 0x796c0018, 0x76d40004, 0x35b00040, 0x79800015, 0x88000006, 0x34700000,
		0x0882c000, 0x8bffffab, 0x37040000, 0x36c00000, 0x3970007f, 0x37300040, 0x4b300007, 0x35800040,
		0x75580003, 0x35c3fffe, 0x0f31c000, 0x77000002, 0x36c00000, 0x4568001f, 0x45ac0017, 0x04558000,
		0x04470000, 0x88000005, 0x4468001f, 0x59407f80, 0x05540000, 0x10454000, 0x5ff80000, 0x5eb80004,
		0x5ef80008, 0x5f38000c, 0x37b80010, 0x8c3c0000, 0x37bbfff4, 0x6bf80000, 0x6ab80004, 0x6af80008,
		0x36840000, 0x36c80000, 0x344c0000, 0x8bffff97, 0x35c7ffff, 0x08adc000, 0x18cdc000, 0x34680000,
		0x5ff80000, 0x5eb80004, 0x5ef80008, 0x37b8000c, 0x883fffc4, 0x4944001f, 0x4988001f, 0x34d40000,
		0x755800c4, 0x88000065, 0x4944001f, 0x4988001f, 0x34d40000, 0x75580061, 0x880000be, 0x59408000,
		0x05540000, 0x14454000, 0x8c3c0000, 0x37bbffec, 0x6bf80000, 0x6ab80004, 0x6af80008, 0x6b38000c,
		0x6b780010, 0x5940007f, 0x3d54ffff, 0x0d854000, 0x49c40017, 0x39dc00ff, 0x4a04001f, 0x354000ff,
		0x75d40004, 0x75800009, 0x76000005, 0x88000044, 0x72000009, 0x115d8000, 0x71400041, 0x58407fc0,
		0x04440000, 0x8800003e, 0x34840000, 0x8bffff82, 0x8800003b, 0x75c0000c, 0x71800009, 0x34d80000,
		0x34580000, 0x8bffff61, 0x3547fff8, 0x35c00001, 0x09dd4000, 0x198d4000, 0x88000003, 0x34400000,
		0x8800002f, 0x59400080, 0x05540000, 0x11994000, 0x355fff81, 0x4e540001, 0x3664007e, 0x39540001,
		0x71400002, 0x45980001, 0x46980005, 0x36c00000, 0x37000000, 0x36000000, 0x35000000, 0x37400020,
		0x4968001e, 0x46a80002, 0x49ac001e, 0x12a98000, 0x46ec0002, 0x46200002, 0x4990001e, 0x12218000,
		0x45100002, 0x11114000, 0x49b0001e, 0x45f00002, 0x3ddc0001, 0x47300001, 0x82180008, 0x76180002,
		0x811c0006, 0x3151c000, 0x0911c000, 0x0a218000, 0x0a214000, 0x3f300001, 0x3777ffff, 0x7743ffe9,
		0x11610000, 0x71400002, 0x3f300001, 0x34400000, 0x34a40000, 0x34f00000, 0x8bffff62, 0x5ff80000,
		0x5eb80004, 0x5ef80008, 0x5f38000c, 0x5f780010, 0x37b80014, 0x8c3c0000, 0x37bbfff0, 0x6bf80000,
		0x6ab80004, 0x6af80008, 0x6b38000c, 0x5940007f, 0x3d54ffff, 0x0e854000, 0x0ec94000, 0x46a80006,
		0x46ec0006, 0x49c40017, 0x39dc00ff, 0x4a080017, 0x3a2000ff, 0x0a5e0000, 0x72400033, 0x78240015,
		0x354000ff, 0x76140007, 0x76c00043, 0x444c001f, 0x59407f80, 0x05540000, 0x10454000, 0x8800003f,
		0x75c00003, 0x36640001, 0x88000004, 0x59402000, 0x05540000, 0x12a94000, 0x34680000, 0x08824000,
		0x37200000, 0x8bfffef3, 0x36840000, 0x88000010, 0x354000ff, 0x75d40003, 0x7680002f, 0x8800002f,
		0x76000003, 0x3667ffff, 0x88000004, 0x59402000, 0x05540000, 0x12ed4000, 0x346c0000, 0x34a40000,
		0x371c0000, 0x8bfffee3, 0x36c40000, 0x59402000, 0x05540000, 0x12a94000, 0x05aac000, 0x45580001,
		0x3733ffff, 0x7d400003, 0x35580000, 0x37300001, 0x344c0000, 0x34b00000, 0x34d40000, 0x8bffff19,
		0x88000016, 0x354000ff, 0x75d40004, 0x11aac000, 0x75800011, 0x88000011, 0x75c00006, 0x056ac000,
		0x49540006, 0x444c001f, 0x04454000, 0x8800000b, 0x056ac000, 0x59804000, 0x05980000, 0x05558000,
		0x344c0000, 0x349c0000, 0x34d40000, 0x8bffff05, 0x88000002, 0x8bfffee8, 0x5ff80000, 0x5eb80004,
		0x5ef80008, 0x5f38000c, 0x37b80010, 0x8c3c0000, 0x37bbfff0, 0x6bf80000, 0x6ab80004, 0x6af80008,
		0x6b38000c, 0x5940007f, 0x3d54ffff, 0x0e854000, 0x0ec94000, 0x46a80007, 0x46ec0007, 0x49c40017,
		0x39dc00ff, 0x4a080017, 0x3a2000ff, 0x0a5e0000, 0x72400030, 0x7824001b, 0x354000ff, 0x76140008,
		0x76c00044, 0x40cc0001, 0x444c001f, 0x59407f80, 0x05540000, 0x10454000, 0x8800003f, 0x75c00003,
		0x36640001, 0x88000004, 0x59404000, 0x05540000, 0x12a94000, 0x34680000, 0x08824000, 0x37200000,
		0x8bfffe94, 0x36840000, 0x59404000, 0x05540000, 0x12ed4000, 0x096e8000, 0x40cc0001, 0x88000028,
		0x354000ff, 0x75d40003, 0x7680002a, 0x8800002a, 0x76000003, 0x3667ffff, 0x88000004, 0x59404000,
		0x05540000, 0x12ed4000, 0x346c0000, 0x34a40000, 0x371c0000, 0x8bfffe7f, 0x36c40000, 0x59404000,
		0x05540000, 0x12a94000, 0x096ac000, 0x88000014, 0x354000ff, 0x75d40006, 0x11aac000, 0x75800015,
		0x58407fc0, 0x04440000, 0x88000013, 0x75c00002, 0x35c00001, 0x82e80004, 0x82ac0006, 0x34400000,
		0x8800000d, 0x096ac000, 0x371c0000, 0x88000004, 0x096e8000, 0x371c0000, 0x40cc0001, 0x344c0000,
		0x34b3ffff, 0x34d40000, 0x8bfffed2, 0x88000002, 0x8bfffe89, 0x5ff80000, 0x5eb80004, 0x5ef80008,
		0x5f38000c, 0x37b80010, 0x8c3c0000, 0x37bbfff0, 0x6bf80000, 0x6ab80004, 0x6af80008, 0x6b38000c,
		0x5940007f, 0x3d54ffff, 0x0e854000, 0x0ec94000, 0x49c40017, 0x39dc00ff, 0x4a080017, 0x3a2000ff,
		0x4944001f, 0x4988001f, 0x14d58000, 0x364000ff, 0x75e4000a, 0x7680003e, 0x76240003, 0x76c0003c,
		0x8800000d, 0x1162c000, 0x7540000b, 0x58407fc0, 0x04440000, 0x88000037, 0x7624000c, 0x76c00034,
		0x115e8000, 0x75400004, 0x58407fc0, 0x04440000, 0x88000030, 0x444c001f, 0x59407f80, 0x05540000,
		0x10454000, 0x8800002b, 0x75c0000a, 0x76800003, 0x444c001f, 0x88000027, 0x34680000, 0x8bfffe3b,
		0x3547fff8, 0x35c00001, 0x09dd4000, 0x1aa94000, 0x7600000a, 0x76c00003, 0x444c001f, 0x8800001d,
		0x346c0000, 0x8bfffe31, 0x3547fff8, 0x36000001, 0x0a214000, 0x1aed4000, 0x071e0000, 0x3733ff81,
		0x59400080, 0x05540000, 0x12a94000, 0x12ed4000, 0x46a80007, 0x46ec0008, 0x296ac000, 0x25aac000,
		0x71800002, 0x3d540001, 0x45940001, 0x79800003, 0x35580000, 0x3733ffff, 0x344c0000, 0x34b00000,
		0x34d40000, 0x8bfffe4f, 0x88000002, 0x8bfffe32, 0x5ff80000, 0x5eb80004, 0x5ef80008, 0x5f38000c,
		0x37b80010, 0x8c3c0000, 0x37bbfff0, 0x6bf80000, 0x6ab80004, 0x6af80008, 0x6b38000c, 0x5940007f,
		0x3d54ffff, 0x0e854000, 0x0ec94000, 0x49c40017, 0x39dc00ff, 0x4a080017, 0x3a2000ff, 0x4944001f,
		0x4988001f, 0x14d58000, 0x364000ff, 0x75e40007, 0x76800047, 0x76240041, 0x76c00045, 0x58407fc0,
		0x04440000, 0x88000043, 0x76240004, 0x76c00040, 0x444c001f, 0x8800003f, 0x7600000d, 0x76c00006,
		0x115e8000, 0x75400035, 0x58407fc0, 0x04440000, 0x88000038, 0x346c0000, 0x8bfffdec, 0x3547fff8,
		0x36000001, 0x0a214000, 0x1aed4000, 0x75c0000a, 0x76800003, 0x444c001f, 0x8800002e, 0x34680000,
		0x8bfffde2, 0x3547fff8, 0x35c00001, 0x09dd4000, 0x1aa94000, 0x0b1e0000, 0x3730007d, 0x59400080,
		0x05540000, 0x12a94000, 0x12ed4000, 0x46a80007, 0x46ec0008, 0x056a8000, 0x82d40003, 0x72d40002,
		0x88000003, 0x4aa80001, 0x37300001, 0x35c00000, 0x36280000, 0x36400020, 0x4960001f, 0x46200001,
		0x45dc0001, 0x75400002, 0x822c0003, 0x0a22c000, 0x3ddc0001, 0x3667ffff, 0x7643fff8, 0x72000002,
		0x3ddc0001, 0x344c0000, 0x34b00000, 0x34dc0000, 0x8bfffdf4, 0x88000007, 0x444c001f, 0x59407f80,
		0x05540000, 0x10454000, 0x88000002, 0x8bfffdd2, 0x5ff80000, 0x5eb80004, 0x5ef80008, 0x5f38000c,
		0x37b80010, 0x8c3c0000, 0x74400002, 0x8c3c0000, 0x59408000, 0x05540000, 0x74540004, 0x5840cf00,
		0x04440000, 0x8c3c0000, 0x2d440000, 0x7c400002, 0x08404000, 0x34c40000, 0x34540000, 0x3480009c,
		0x883ffe04, 0x5940007f, 0x3d54ffff, 0x0d854000, 0x49c40017, 0x39dc00ff, 0x4a04001f, 0x354000ff,
		0x75d40002, 0x75800012, 0x71c00004, 0x59400080, 0x05540000, 0x11994000, 0x365fff6a, 0x35400008,
		0x7a54000e, 0x5940cf00, 0x05540000, 0x70540005, 0x76000004, 0x58407fff, 0x3c44ffff, 0x8c3c0000,
		0x58408000, 0x04440000, 0x8c3c0000, 0x58408000, 0x04440000, 0x8c3c0000, 0x7a400003, 0x199a4000,
		0x88000012, 0x0a424000, 0x35400020, 0x7a540003, 0x34400000, 0x8c3c0000, 0x1d5a4000, 0x35c00020,
		0x09de4000, 0x1999c000, 0x59c08000, 0x05dc0000, 0x81d80004, 0x759c0004, 0x39940001, 0x71800002,
		0x35540001, 0x35940000, 0x72000002, 0x09818000, 0x34580000, 0x8c3c0000, 0x5940007f, 0x3d54ffff,
		0x360000ff, 0x36400000, 0x0d854000, 0x49c40017, 0x39dc00ff, 0x75e00004, 0x71800003, 0x36400001,
		0x8c3c0000, 0x0d894000, 0x49c80017, 0x39dc00ff, 0x75e00003, 0x71800002, 0x36400001, 0x8c3c0000,
		0x37bbfffc, 0x6bf80000, 0x8bffffec, 0x5ff80000, 0x37b80004, 0x76400005, 0x70480006, 0x11448000,
		0x45540001, 0x71400003, 0x34400000, 0x8c3c0000, 0x34400001, 0x8c3c0000, 0x37bbfffc, 0x6bf80000,
		0x8bffffde, 0x5ff80000, 0x37b80004, 0x7640000f, 0x4944001f, 0x4988001f, 0x75580006, 0x71400003,
		0x80840008, 0x88000009, 0x80480006, 0x88000007, 0x71400006, 0x11c48000, 0x45dc0001, 0x71c00003,
		0x34400001, 0x8c3c0000, 0x34400000, 0x8c3c0000, 0x37bbfffc, 0x6bf80000, 0x8bffffc8, 0x5ff80000,
		0x37b80004, 0x7640000d, 0x4944001f, 0x4988001f, 0x75580006, 0x71400003, 0x8448000a, 0x88000007,
		0x84840008, 0x88000005, 0x75400006, 0x11c48000, 0x45dc0001, 0x71c00003, 0x34400000, 0x8c3c0000,
		0x34400001, 0x8c3c0000,
	},
	leaders: map[uint32]uint32{
		0: 7, 5: 7, 9: 5, 12: 6, 16: 4, 18: 3, 20: 7, 25: 4,
		27: 4, 29: 7, 35: 1,
	},
}

func runKalman(c *CPU, st *cst) int {
	r := st.r
	data := st.data
	cycles, instret := st.cycles, st.instret
	var a, v, bpc uint32
	var ok bool
	_, _, _, _, _ = r, data, a, v, ok
	switch st.pc {
	case 0:
		goto L0
	case 5:
		goto L5
	case 9:
		goto L9
	case 12:
		goto L12
	case 16:
		goto L16
	case 18:
		goto L18
	case 20:
		goto L20
	case 25:
		goto L25
	case 27:
		goto L27
	case 29:
		goto L29
	case 35:
		goto L35
	default:
		return stNoEntry
	}
L0:
	if st.stop-cycles <= 7 {
		bpc = 0
		goto budgetOut
	}
	// 000: addi r14, r0, 65280
	r[14] = 0 + 0xff00
	// 001: lw r10, 0(r0)
	a = 0 + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 1, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 002: addi r11, r0, 256
	r[11] = 0 + 0x100
	// 003: addi r12, r0, 32768
	r[12] = 0 + 0x8000
	// 004: lw r13, 16(r0)
	a = 0 + 0x10
	if a&3 == 0 && a <= DataBytes-4 {
		r[13] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 4, cycles+5, instret+4); !ok {
			goto errOut
		}
		r[13] = v
	}
	cycles, instret = cycles+7, instret+5
L5:
	if st.stop-cycles <= 7 {
		bpc = 5
		goto budgetOut
	}
	// 005: beq r10, r0, 30
	if r[10] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L35
	}
	cycles, instret = cycles+1, instret+1
	// 006: lw r1, 12(r0)
	a = 0 + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 6, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 007: lw r2, 8(r0)
	a = 0 + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 7, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 008: jal r15, 157
	if ncyc, nins, iok := tryIntrinF32Add(c, st, cycles+4, instret+2, 36, 36); iok {
		cycles, instret = ncyc, nins
		goto L9
	}
	r[15] = 36
	cycles, instret = cycles+6, instret+3
	st.pc = 165
	goto okOut
L9:
	if st.stop-cycles <= 5 {
		bpc = 9
		goto budgetOut
	}
	// 009: addi r2, r1, 0
	r[2] = r[1] + 0x0
	// 00a: lw r1, 12(r0)
	a = 0 + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 10, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 00b: jal r15, 535
	if ncyc, nins, iok := tryIntrinF32Div(c, st, cycles+3, instret+2, 48, 36); iok {
		cycles, instret = ncyc, nins
		goto L12
	}
	r[15] = 48
	cycles, instret = cycles+5, instret+3
	st.pc = 546
	goto okOut
L12:
	if st.stop-cycles <= 6 {
		bpc = 12
		goto budgetOut
	}
	// 00c: sw r1, 20(r0)
	a = 0 + 0x14
	v = r[1]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 12, cycles+0, instret+0) {
		goto errOut
	}
	// 00d: lw r1, 0(r11)
	a = r[11] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 13, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 00e: addi r2, r13, 0
	r[2] = r[13] + 0x0
	// 00f: jal r15, 155
	if ncyc, nins, iok := tryIntrinF32Sub(c, st, cycles+4, instret+3, 64, 36); iok {
		cycles, instret = ncyc, nins
		goto L16
	}
	r[15] = 64
	cycles, instret = cycles+6, instret+4
	st.pc = 170
	goto okOut
L16:
	if st.stop-cycles <= 4 {
		bpc = 16
		goto budgetOut
	}
	// 010: lw r2, 20(r0)
	a = 0 + 0x14
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 16, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 011: jal r15, 442
	if ncyc, nins, iok := tryIntrinF32Mul(c, st, cycles+2, instret+1, 72, 36); iok {
		cycles, instret = ncyc, nins
		goto L18
	}
	r[15] = 72
	cycles, instret = cycles+4, instret+2
	st.pc = 459
	goto okOut
L18:
	if st.stop-cycles <= 3 {
		bpc = 18
		goto budgetOut
	}
	// 012: addi r2, r13, 0
	r[2] = r[13] + 0x0
	// 013: jal r15, 146
	if ncyc, nins, iok := tryIntrinF32Add(c, st, cycles+1, instret+1, 80, 36); iok {
		cycles, instret = ncyc, nins
		goto L20
	}
	r[15] = 80
	cycles, instret = cycles+3, instret+2
	st.pc = 165
	goto okOut
L20:
	if st.stop-cycles <= 7 {
		bpc = 20
		goto budgetOut
	}
	// 014: addi r13, r1, 0
	r[13] = r[1] + 0x0
	// 015: lui r1, 0x3f80
	r[1] = 0x3f800000
	// 016: add r1, r1, r0
	r[1] = r[1] + 0
	// 017: lw r2, 20(r0)
	a = 0 + 0x14
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 23, cycles+3, instret+3); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 018: jal r15, 146
	if ncyc, nins, iok := tryIntrinF32Sub(c, st, cycles+5, instret+4, 100, 36); iok {
		cycles, instret = ncyc, nins
		goto L25
	}
	r[15] = 100
	cycles, instret = cycles+7, instret+5
	st.pc = 170
	goto okOut
L25:
	if st.stop-cycles <= 4 {
		bpc = 25
		goto budgetOut
	}
	// 019: lw r2, 12(r0)
	a = 0 + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 25, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 01a: jal r15, 433
	if ncyc, nins, iok := tryIntrinF32Mul(c, st, cycles+2, instret+1, 108, 36); iok {
		cycles, instret = ncyc, nins
		goto L27
	}
	r[15] = 108
	cycles, instret = cycles+4, instret+2
	st.pc = 459
	goto okOut
L27:
	if st.stop-cycles <= 4 {
		bpc = 27
		goto budgetOut
	}
	// 01b: lw r2, 4(r0)
	a = 0 + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 27, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 01c: jal r15, 137
	if ncyc, nins, iok := tryIntrinF32Add(c, st, cycles+2, instret+1, 116, 36); iok {
		cycles, instret = ncyc, nins
		goto L29
	}
	r[15] = 116
	cycles, instret = cycles+4, instret+2
	st.pc = 165
	goto okOut
L29:
	if st.stop-cycles <= 7 {
		bpc = 29
		goto budgetOut
	}
	// 01d: sw r1, 12(r0)
	a = 0 + 0xc
	v = r[1]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 29, cycles+0, instret+0) {
		goto errOut
	}
	// 01e: sw r13, 0(r12)
	a = r[12] + 0x0
	v = r[13]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 30, cycles+1, instret+1) {
		goto errOut
	}
	// 01f: addi r11, r11, 4
	r[11] = r[11] + 0x4
	// 020: addi r12, r12, 4
	r[12] = r[12] + 0x4
	// 021: addi r10, r10, -1
	r[10] = r[10] + 0xffffffff
	// 022: jal r0, -29
	cycles, instret = cycles+7, instret+6
	goto L5
L35:
	if st.stop-cycles <= 1 {
		bpc = 35
		goto budgetOut
	}
	// 023: halt
	cycles, instret = cycles+1, instret+1
	st.pc = 36
	st.cycles, st.instret = cycles, instret
	return stHalt
budgetOut:
	st.pc = bpc
	st.cycles, st.instret = cycles, instret
	return stBudget
errOut:
	return stErr
okOut:
	st.cycles, st.instret = cycles, instret
	return stOK
}

// kernelFxBoresight runs the FxBoresight program: 395 words, 37 leaders.
var kernelFxBoresight = genKernel{
	fn: runFxBoresight,
	words: []uint32{
		0x3780ff00, 0x5e800000, 0x36c00100, 0x37008000, 0x728000e7, 0x5d6c0000, 0x694000a0, 0x5d6c0004,
		0x694000a4, 0x5d6c0008, 0x694000a8, 0x5d6c000c, 0x694000ac, 0x5d6c0010, 0x694000b0, 0x5d800004,
		0x5d400018, 0x05558000, 0x69400018, 0x5d400028, 0x05558000, 0x69400028, 0x5d400038, 0x05558000,
		0x69400038, 0x5c400010, 0x5c8000a8, 0x8bc000da, 0x36440000, 0x5c400014, 0x5c8000a4, 0x8bc000d6,
		0x5d4000a0, 0x09564000, 0x05544000, 0x5d8000ac, 0x09994000, 0x69800088, 0x5c40000c, 0x5c8000a8,
		0x8bc000cd, 0x36440000, 0x5c400014, 0x5c8000a0, 0x8bc000c9, 0x5d4000a4, 0x05564000, 0x09544000,
		0x5d8000b0, 0x09994000, 0x6980008c, 0x68000040, 0x5d4000a8, 0x09814000, 0x69800044, 0x5d8000a4,
		0x69800048, 0x6940004c, 0x68000050, 0x5d4000a0, 0x09814000, 0x69800054, 0x34400040, 0x34800058,
		0x8bc000d2, 0x3440004c, 0x34800064, 0x8bc000cf, 0x34400040, 0x34800058, 0x8bc000f3, 0x5d400008,
		0x04454000, 0x68400090, 0x3440004c, 0x34800064, 0x8bc000ed, 0x5d400008, 0x04454000, 0x68400098,
		0x34400040, 0x34800064, 0x8bc000e7, 0x68400094, 0x5c400090, 0x5c800098, 0x8bc00109, 0x36440000,
		0x5c400094, 0x5c800094, 0x8bc00105, 0x0a644000, 0x35400001, 0x7e540002, 0x36400001, 0x6a40009c,
		0x37400000, 0x35740058, 0x5c540000, 0x5c800098, 0x8bc00088, 0x36040000, 0x36480000, 0x35740064,
		0x5c540000, 0x5c800094, 0x8bc00082, 0x31a04000, 0x0a204000, 0x0a648000, 0x0a658000, 0x34600000,
		0x34a40000, 0x5cc0009c, 0x8bc000f6, 0x35740070, 0x68540000, 0x35740064, 0x5c540000, 0x5c800090,
		0x8bc00074, 0x36040000, 0x36480000, 0x35740058, 0x5c540000, 0x5c800094, 0x8bc0006e, 0x31a04000,
		0x0a204000, 0x0a648000, 0x0a658000, 0x34600000, 0x34a40000, 0x5cc0009c, 0x8bc000e2, 0x3574007c,
		0x68540000, 0x37740004, 0x3540000c, 0x7b57ffd6, 0x37400000, 0x35740070, 0x5c540000, 0x5c800088,
		0x8bc00065, 0x36440000, 0x3574007c, 0x5c540000, 0x5c80008c, 0x8bc00060, 0x06644000, 0x3574000c,
		0x5d940000, 0x059a4000, 0x69940000, 0x37740004, 0x3540000c, 0x7b57fff0, 0x37400000, 0x35c00000,
		0x35740070, 0x5c540000, 0x355c0058, 0x5c940000, 0x69c000b4, 0x8bc00050, 0x36440000, 0x5dc000b4,
		0x3574007c, 0x5c540000, 0x355c0064, 0x5c940000, 0x69c000b4, 0x6a4000bc, 0x8bc00047, 0x5e4000bc,
		0x5dc000b4, 0x06644000, 0x05774000, 0x05574000, 0x0555c000, 0x35540018, 0x5d940000, 0x099a4000,
		0x69940000, 0x35dc0004, 0x3540000c, 0x79d7ffe5, 0x37740004, 0x3540000c, 0x7b57ffe1, 0x5d40001c,
		0x5d800024, 0x05558000, 0x4994001f, 0x05558000, 0x4d540001, 0x6940001c, 0x69400024, 0x5d400020,
		0x5d800030, 0x05558000, 0x4994001f, 0x05558000, 0x4d540001, 0x69400020, 0x69400030, 0x5d40002c,
		0x5d800034, 0x05558000, 0x4994001f, 0x05558000, 0x4d540001, 0x6940002c, 0x69400034, 0x35800001,
		0x5d400018, 0x7d580002, 0x69800018, 0x5d400028, 0x7d580002, 0x69800028, 0x5d400038, 0x7d580002,
		0x69800038, 0x5d40000c, 0x69700000, 0x5d400010, 0x69700004, 0x5d400014, 0x69700008, 0x3730000c,
		0x36ec0014, 0x36abffff, 0x883fff1a, 0x00000000, 0x25448000, 0x29848000, 0x7c400002, 0x09988000,
		0x7c800002, 0x09984000, 0x34540000, 0x34980000, 0x8c3c0000, 0x37bbfffc, 0x6bf80000, 0x8bfffff5,
		0x5ff80000, 0x37b80004, 0x7c80000f, 0x08404000, 0x408bffff, 0x74400002, 0x34880001, 0x59400080,
		0x05540000, 0x05854000, 0x31d84000, 0x0489c000, 0x49980018, 0x44880008, 0x10588000, 0x08404000,
		0x8c3c0000, 0x59400080, 0x05540000, 0x05854000, 0x31d84000, 0x0489c000, 0x49980018, 0x44880008,
		0x10588000, 0x8c3c0000, 0x37bbffec, 0x6bf80000, 0x6ab80004, 0x6af80008, 0x6b38000c, 0x6b780010,
		0x36840000, 0x36c80000, 0x37000018, 0x37400000, 0x5c700000, 0x5ca80000, 0x8bffffd7, 0x36440000,
		0x6a4000c0, 0x5c700004, 0x5ca80004, 0x8bffffd2, 0x5e4000c0, 0x06644000, 0x6a4000c0, 0x5c700008,
		0x5ca80008, 0x8bffffcc, 0x5e4000c0, 0x06644000, 0x6a6c0000, 0x36ec0004, 0x3730000c, 0x37740001,
		0x35400003, 0x7b57ffeb, 0x5ff80000, 0x5eb80004, 0x5ef80008, 0x5f38000c, 0x5f780010, 0x37b80014,
		0x8c3c0000, 0x37bbffec, 0x6bf80000, 0x6ab80004, 0x6af80008, 0x6b38000c, 0x6b780010, 0x36840000,
		0x36c80000, 0x37000000, 0x37400000, 0x36400000, 0x6a4000c4, 0x5e4000c4, 0x056a4000, 0x5c540000,
		0x056e4000, 0x5c940000, 0x8bffffa2, 0x05704000, 0x31970000, 0x37140000, 0x07748000, 0x07758000,
		0x5e4000c4, 0x36640004, 0x6a4000c4, 0x3540000c, 0x7a57fff1, 0x48700012, 0x4574000e, 0x10454000,
		0x5ff80000, 0x5eb80004, 0x5ef80008, 0x5f38000c, 0x5f780010, 0x37b80014, 0x8c3c0000, 0x37bbfffc,
		0x6bf80000, 0x8bffff8b, 0x5ff80000, 0x37b80004, 0x4844001e, 0x44880002, 0x10448000, 0x8c3c0000,
		0x36400000, 0x7c800006, 0x36400001, 0x08404000, 0x408bffff, 0x74400002, 0x34880001, 0x35400000,
		0x35800000, 0x35c00020, 0x4a08001f, 0x44880001, 0x45540001, 0x11560000, 0x45980001, 0x814c0003,
		0x0954c000, 0x3d980001, 0x35dfffff, 0x75c3fff7, 0x35c00020, 0x4a04001f, 0x44440001, 0x45540001,
		0x11560000, 0x45980001, 0x814c0003, 0x0954c000, 0x3d980001, 0x35dfffff, 0x75c3fff7, 0x34580000,
		0x72400002, 0x08404000, 0x8c3c0000,
	},
	leaders: map[uint32]uint32{
		0: 5, 4: 36, 28: 7, 32: 14, 41: 7, 45: 26, 65: 4, 68: 4,
		71: 8, 77: 8, 83: 7, 87: 7, 91: 6, 101: 9, 107: 10, 115: 9,
		121: 9, 127: 10, 135: 6, 145: 8, 150: 10, 166: 13, 175: 76, 235: 1,
		236: 16, 245: 4, 248: 19, 265: 10, 274: 10, 287: 8, 292: 10, 298: 22,
		313: 12, 331: 27, 351: 4, 354: 8, 360: 10,
	},
}

func runFxBoresight(c *CPU, st *cst) int {
	r := st.r
	data := st.data
	cycles, instret := st.cycles, st.instret
	var a, v, bpc uint32
	var ok bool
	_, _, _, _, _ = r, data, a, v, ok
	switch st.pc {
	case 0:
		goto L0
	case 4:
		goto L4
	case 28:
		goto L28
	case 32:
		goto L32
	case 41:
		goto L41
	case 45:
		goto L45
	case 65:
		goto L65
	case 68:
		goto L68
	case 71:
		goto L71
	case 77:
		goto L77
	case 83:
		goto L83
	case 87:
		goto L87
	case 91:
		goto L91
	case 101:
		goto L101
	case 107:
		goto L107
	case 115:
		goto L115
	case 121:
		goto L121
	case 127:
		goto L127
	case 135:
		goto L135
	case 145:
		goto L145
	case 150:
		goto L150
	case 166:
		goto L166
	case 175:
		goto L175
	case 235:
		goto L235
	case 236:
		goto L236
	case 245:
		goto L245
	case 248:
		goto L248
	case 265:
		goto L265
	case 274:
		goto L274
	case 287:
		goto L287
	case 292:
		goto L292
	case 298:
		goto L298
	case 313:
		goto L313
	case 331:
		goto L331
	case 351:
		goto L351
	case 354:
		goto L354
	case 360:
		goto L360
	default:
		return stNoEntry
	}
L0:
	if st.stop-cycles <= 5 {
		bpc = 0
		goto budgetOut
	}
	// 000: addi r14, r0, 65280
	r[14] = 0 + 0xff00
	// 001: lw r10, 0(r0)
	a = 0 + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 1, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 002: addi r11, r0, 256
	r[11] = 0 + 0x100
	// 003: addi r12, r0, 32768
	r[12] = 0 + 0x8000
	cycles, instret = cycles+5, instret+4
L4:
	if st.stop-cycles <= 36 {
		bpc = 4
		goto budgetOut
	}
	// 004: beq r10, r0, 231
	if r[10] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L235
	}
	cycles, instret = cycles+1, instret+1
	// 005: lw r5, 0(r11)
	a = r[11] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 5, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 006: sw r5, 160(r0)
	a = 0 + 0xa0
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 6, cycles+2, instret+1) {
		goto errOut
	}
	// 007: lw r5, 4(r11)
	a = r[11] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 7, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 008: sw r5, 164(r0)
	a = 0 + 0xa4
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 8, cycles+5, instret+3) {
		goto errOut
	}
	// 009: lw r5, 8(r11)
	a = r[11] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 9, cycles+6, instret+4); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 00a: sw r5, 168(r0)
	a = 0 + 0xa8
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 10, cycles+8, instret+5) {
		goto errOut
	}
	// 00b: lw r5, 12(r11)
	a = r[11] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 11, cycles+9, instret+6); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 00c: sw r5, 172(r0)
	a = 0 + 0xac
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 12, cycles+11, instret+7) {
		goto errOut
	}
	// 00d: lw r5, 16(r11)
	a = r[11] + 0x10
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 13, cycles+12, instret+8); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 00e: sw r5, 176(r0)
	a = 0 + 0xb0
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 14, cycles+14, instret+9) {
		goto errOut
	}
	// 00f: lw r6, 4(r0)
	a = 0 + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 15, cycles+15, instret+10); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 010: lw r5, 24(r0)
	a = 0 + 0x18
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 16, cycles+17, instret+11); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 011: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 012: sw r5, 24(r0)
	a = 0 + 0x18
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 18, cycles+20, instret+13) {
		goto errOut
	}
	// 013: lw r5, 40(r0)
	a = 0 + 0x28
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 19, cycles+21, instret+14); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 014: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 015: sw r5, 40(r0)
	a = 0 + 0x28
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 21, cycles+24, instret+16) {
		goto errOut
	}
	// 016: lw r5, 56(r0)
	a = 0 + 0x38
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 22, cycles+25, instret+17); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 017: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 018: sw r5, 56(r0)
	a = 0 + 0x38
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 24, cycles+28, instret+19) {
		goto errOut
	}
	// 019: lw r1, 16(r0)
	a = 0 + 0x10
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 25, cycles+29, instret+20); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 01a: lw r2, 168(r0)
	a = 0 + 0xa8
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 26, cycles+31, instret+21); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 01b: jal r15, 218
	r[15] = 112
	cycles, instret = cycles+35, instret+23
	goto L245
L28:
	if st.stop-cycles <= 7 {
		bpc = 28
		goto budgetOut
	}
	// 01c: addi r9, r1, 0
	r[9] = r[1] + 0x0
	// 01d: lw r1, 20(r0)
	a = 0 + 0x14
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 29, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 01e: lw r2, 164(r0)
	a = 0 + 0xa4
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 30, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 01f: jal r15, 214
	r[15] = 128
	cycles, instret = cycles+7, instret+4
	goto L245
L32:
	if st.stop-cycles <= 14 {
		bpc = 32
		goto budgetOut
	}
	// 020: lw r5, 160(r0)
	a = 0 + 0xa0
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 32, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 021: sub r5, r5, r9
	r[5] = r[5] - r[9]
	// 022: add r5, r5, r1
	r[5] = r[5] + r[1]
	// 023: lw r6, 172(r0)
	a = 0 + 0xac
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 35, cycles+4, instret+3); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 024: sub r6, r6, r5
	r[6] = r[6] - r[5]
	// 025: sw r6, 136(r0)
	a = 0 + 0x88
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 37, cycles+7, instret+5) {
		goto errOut
	}
	// 026: lw r1, 12(r0)
	a = 0 + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 38, cycles+8, instret+6); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 027: lw r2, 168(r0)
	a = 0 + 0xa8
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 39, cycles+10, instret+7); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 028: jal r15, 205
	r[15] = 164
	cycles, instret = cycles+14, instret+9
	goto L245
L41:
	if st.stop-cycles <= 7 {
		bpc = 41
		goto budgetOut
	}
	// 029: addi r9, r1, 0
	r[9] = r[1] + 0x0
	// 02a: lw r1, 20(r0)
	a = 0 + 0x14
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 42, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 02b: lw r2, 160(r0)
	a = 0 + 0xa0
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 43, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 02c: jal r15, 201
	r[15] = 180
	cycles, instret = cycles+7, instret+4
	goto L245
L45:
	if st.stop-cycles <= 26 {
		bpc = 45
		goto budgetOut
	}
	// 02d: lw r5, 164(r0)
	a = 0 + 0xa4
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 45, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 02e: add r5, r5, r9
	r[5] = r[5] + r[9]
	// 02f: sub r5, r5, r1
	r[5] = r[5] - r[1]
	// 030: lw r6, 176(r0)
	a = 0 + 0xb0
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 48, cycles+4, instret+3); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 031: sub r6, r6, r5
	r[6] = r[6] - r[5]
	// 032: sw r6, 140(r0)
	a = 0 + 0x8c
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 50, cycles+7, instret+5) {
		goto errOut
	}
	// 033: sw r0, 64(r0)
	a = 0 + 0x40
	v = 0
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 51, cycles+8, instret+6) {
		goto errOut
	}
	// 034: lw r5, 168(r0)
	a = 0 + 0xa8
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 52, cycles+9, instret+7); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 035: sub r6, r0, r5
	r[6] = 0 - r[5]
	// 036: sw r6, 68(r0)
	a = 0 + 0x44
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 54, cycles+12, instret+9) {
		goto errOut
	}
	// 037: lw r6, 164(r0)
	a = 0 + 0xa4
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 55, cycles+13, instret+10); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 038: sw r6, 72(r0)
	a = 0 + 0x48
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 56, cycles+15, instret+11) {
		goto errOut
	}
	// 039: sw r5, 76(r0)
	a = 0 + 0x4c
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 57, cycles+16, instret+12) {
		goto errOut
	}
	// 03a: sw r0, 80(r0)
	a = 0 + 0x50
	v = 0
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 58, cycles+17, instret+13) {
		goto errOut
	}
	// 03b: lw r5, 160(r0)
	a = 0 + 0xa0
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 59, cycles+18, instret+14); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 03c: sub r6, r0, r5
	r[6] = 0 - r[5]
	// 03d: sw r6, 84(r0)
	a = 0 + 0x54
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 61, cycles+21, instret+16) {
		goto errOut
	}
	// 03e: addi r1, r0, 64
	r[1] = 0 + 0x40
	// 03f: addi r2, r0, 88
	r[2] = 0 + 0x58
	// 040: jal r15, 210
	r[15] = 260
	cycles, instret = cycles+26, instret+20
	goto L274
L65:
	if st.stop-cycles <= 4 {
		bpc = 65
		goto budgetOut
	}
	// 041: addi r1, r0, 76
	r[1] = 0 + 0x4c
	// 042: addi r2, r0, 100
	r[2] = 0 + 0x64
	// 043: jal r15, 207
	r[15] = 272
	cycles, instret = cycles+4, instret+3
	goto L274
L68:
	if st.stop-cycles <= 4 {
		bpc = 68
		goto budgetOut
	}
	// 044: addi r1, r0, 64
	r[1] = 0 + 0x40
	// 045: addi r2, r0, 88
	r[2] = 0 + 0x58
	// 046: jal r15, 243
	r[15] = 284
	cycles, instret = cycles+4, instret+3
	goto L313
L71:
	if st.stop-cycles <= 8 {
		bpc = 71
		goto budgetOut
	}
	// 047: lw r5, 8(r0)
	a = 0 + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 71, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 048: add r1, r1, r5
	r[1] = r[1] + r[5]
	// 049: sw r1, 144(r0)
	a = 0 + 0x90
	v = r[1]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 73, cycles+3, instret+2) {
		goto errOut
	}
	// 04a: addi r1, r0, 76
	r[1] = 0 + 0x4c
	// 04b: addi r2, r0, 100
	r[2] = 0 + 0x64
	// 04c: jal r15, 237
	r[15] = 308
	cycles, instret = cycles+8, instret+6
	goto L313
L77:
	if st.stop-cycles <= 8 {
		bpc = 77
		goto budgetOut
	}
	// 04d: lw r5, 8(r0)
	a = 0 + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 77, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 04e: add r1, r1, r5
	r[1] = r[1] + r[5]
	// 04f: sw r1, 152(r0)
	a = 0 + 0x98
	v = r[1]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 79, cycles+3, instret+2) {
		goto errOut
	}
	// 050: addi r1, r0, 64
	r[1] = 0 + 0x40
	// 051: addi r2, r0, 100
	r[2] = 0 + 0x64
	// 052: jal r15, 231
	r[15] = 332
	cycles, instret = cycles+8, instret+6
	goto L313
L83:
	if st.stop-cycles <= 7 {
		bpc = 83
		goto budgetOut
	}
	// 053: sw r1, 148(r0)
	a = 0 + 0x94
	v = r[1]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 83, cycles+0, instret+0) {
		goto errOut
	}
	// 054: lw r1, 144(r0)
	a = 0 + 0x90
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 84, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 055: lw r2, 152(r0)
	a = 0 + 0x98
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 85, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 056: jal r15, 265
	r[15] = 348
	cycles, instret = cycles+7, instret+4
	goto L351
L87:
	if st.stop-cycles <= 7 {
		bpc = 87
		goto budgetOut
	}
	// 057: addi r9, r1, 0
	r[9] = r[1] + 0x0
	// 058: lw r1, 148(r0)
	a = 0 + 0x94
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 88, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 059: lw r2, 148(r0)
	a = 0 + 0x94
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 89, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 05a: jal r15, 261
	r[15] = 364
	cycles, instret = cycles+7, instret+4
	goto L351
L91:
	if st.stop-cycles <= 6 {
		bpc = 91
		goto budgetOut
	}
	// 05b: sub r9, r9, r1
	r[9] = r[9] - r[1]
	// 05c: addi r5, r0, 1
	r[5] = 0 + 0x1
	// 05d: bge r9, r5, 2
	if int32(r[9]) >= int32(r[5]) {
		cycles, instret = cycles+4, instret+3
		goto L95
	}
	cycles, instret = cycles+3, instret+3
	// 05e: addi r9, r0, 1
	r[9] = 0 + 0x1
	cycles, instret = cycles+1, instret+1
L95:
	// 05f: sw r9, 156(r0)
	a = 0 + 0x9c
	v = r[9]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 95, cycles+0, instret+0) {
		goto errOut
	}
	// 060: addi r13, r0, 0
	r[13] = 0 + 0x0
	cycles, instret = cycles+2, instret+2
L97:
	if st.stop-cycles <= 7 {
		bpc = 97
		goto budgetOut
	}
	// 061: addi r5, r13, 88
	r[5] = r[13] + 0x58
	// 062: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 98, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 063: lw r2, 152(r0)
	a = 0 + 0x98
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 99, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 064: jal r15, 136
	r[15] = 404
	cycles, instret = cycles+7, instret+4
	goto L236
L101:
	if st.stop-cycles <= 9 {
		bpc = 101
		goto budgetOut
	}
	// 065: addi r8, r1, 0
	r[8] = r[1] + 0x0
	// 066: addi r9, r2, 0
	r[9] = r[2] + 0x0
	// 067: addi r5, r13, 100
	r[5] = r[13] + 0x64
	// 068: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 104, cycles+3, instret+3); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 069: lw r2, 148(r0)
	a = 0 + 0x94
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 105, cycles+5, instret+4); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 06a: jal r15, 130
	r[15] = 428
	cycles, instret = cycles+9, instret+6
	goto L236
L107:
	if st.stop-cycles <= 10 {
		bpc = 107
		goto budgetOut
	}
	// 06b: sltu r6, r8, r1
	r[6] = b2u(r[8] < r[1])
	// 06c: sub r8, r8, r1
	r[8] = r[8] - r[1]
	// 06d: sub r9, r9, r2
	r[9] = r[9] - r[2]
	// 06e: sub r9, r9, r6
	r[9] = r[9] - r[6]
	// 06f: addi r1, r8, 0
	r[1] = r[8] + 0x0
	// 070: addi r2, r9, 0
	r[2] = r[9] + 0x0
	// 071: lw r3, 156(r0)
	a = 0 + 0x9c
	if a&3 == 0 && a <= DataBytes-4 {
		r[3] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 113, cycles+6, instret+6); !ok {
			goto errOut
		}
		r[3] = v
	}
	// 072: jal r15, 246
	r[15] = 460
	cycles, instret = cycles+10, instret+8
	goto L360
L115:
	if st.stop-cycles <= 9 {
		bpc = 115
		goto budgetOut
	}
	// 073: addi r5, r13, 112
	r[5] = r[13] + 0x70
	// 074: sw r1, 0(r5)
	a = r[5] + 0x0
	v = r[1]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 116, cycles+1, instret+1) {
		goto errOut
	}
	// 075: addi r5, r13, 100
	r[5] = r[13] + 0x64
	// 076: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 118, cycles+3, instret+3); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 077: lw r2, 144(r0)
	a = 0 + 0x90
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 119, cycles+5, instret+4); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 078: jal r15, 116
	r[15] = 484
	cycles, instret = cycles+9, instret+6
	goto L236
L121:
	if st.stop-cycles <= 9 {
		bpc = 121
		goto budgetOut
	}
	// 079: addi r8, r1, 0
	r[8] = r[1] + 0x0
	// 07a: addi r9, r2, 0
	r[9] = r[2] + 0x0
	// 07b: addi r5, r13, 88
	r[5] = r[13] + 0x58
	// 07c: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 124, cycles+3, instret+3); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 07d: lw r2, 148(r0)
	a = 0 + 0x94
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 125, cycles+5, instret+4); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 07e: jal r15, 110
	r[15] = 508
	cycles, instret = cycles+9, instret+6
	goto L236
L127:
	if st.stop-cycles <= 10 {
		bpc = 127
		goto budgetOut
	}
	// 07f: sltu r6, r8, r1
	r[6] = b2u(r[8] < r[1])
	// 080: sub r8, r8, r1
	r[8] = r[8] - r[1]
	// 081: sub r9, r9, r2
	r[9] = r[9] - r[2]
	// 082: sub r9, r9, r6
	r[9] = r[9] - r[6]
	// 083: addi r1, r8, 0
	r[1] = r[8] + 0x0
	// 084: addi r2, r9, 0
	r[2] = r[9] + 0x0
	// 085: lw r3, 156(r0)
	a = 0 + 0x9c
	if a&3 == 0 && a <= DataBytes-4 {
		r[3] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 133, cycles+6, instret+6); !ok {
			goto errOut
		}
		r[3] = v
	}
	// 086: jal r15, 226
	r[15] = 540
	cycles, instret = cycles+10, instret+8
	goto L360
L135:
	if st.stop-cycles <= 6 {
		bpc = 135
		goto budgetOut
	}
	// 087: addi r5, r13, 124
	r[5] = r[13] + 0x7c
	// 088: sw r1, 0(r5)
	a = r[5] + 0x0
	v = r[1]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 136, cycles+1, instret+1) {
		goto errOut
	}
	// 089: addi r13, r13, 4
	r[13] = r[13] + 0x4
	// 08a: addi r5, r0, 12
	r[5] = 0 + 0xc
	// 08b: blt r13, r5, -42
	if int32(r[13]) < int32(r[5]) {
		cycles, instret = cycles+6, instret+5
		goto L97
	}
	cycles, instret = cycles+5, instret+5
	// 08c: addi r13, r0, 0
	r[13] = 0 + 0x0
	cycles, instret = cycles+1, instret+1
L141:
	if st.stop-cycles <= 7 {
		bpc = 141
		goto budgetOut
	}
	// 08d: addi r5, r13, 112
	r[5] = r[13] + 0x70
	// 08e: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 142, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 08f: lw r2, 136(r0)
	a = 0 + 0x88
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 143, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 090: jal r15, 101
	r[15] = 580
	cycles, instret = cycles+7, instret+4
	goto L245
L145:
	if st.stop-cycles <= 8 {
		bpc = 145
		goto budgetOut
	}
	// 091: addi r9, r1, 0
	r[9] = r[1] + 0x0
	// 092: addi r5, r13, 124
	r[5] = r[13] + 0x7c
	// 093: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 147, cycles+2, instret+2); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 094: lw r2, 140(r0)
	a = 0 + 0x8c
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 148, cycles+4, instret+3); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 095: jal r15, 96
	r[15] = 600
	cycles, instret = cycles+8, instret+5
	goto L245
L150:
	if st.stop-cycles <= 10 {
		bpc = 150
		goto budgetOut
	}
	// 096: add r9, r9, r1
	r[9] = r[9] + r[1]
	// 097: addi r5, r13, 12
	r[5] = r[13] + 0xc
	// 098: lw r6, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 152, cycles+2, instret+2); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 099: add r6, r6, r9
	r[6] = r[6] + r[9]
	// 09a: sw r6, 0(r5)
	a = r[5] + 0x0
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 154, cycles+5, instret+4) {
		goto errOut
	}
	// 09b: addi r13, r13, 4
	r[13] = r[13] + 0x4
	// 09c: addi r5, r0, 12
	r[5] = 0 + 0xc
	// 09d: blt r13, r5, -16
	if int32(r[13]) < int32(r[5]) {
		cycles, instret = cycles+10, instret+8
		goto L141
	}
	cycles, instret = cycles+9, instret+8
	// 09e: addi r13, r0, 0
	r[13] = 0 + 0x0
	cycles, instret = cycles+1, instret+1
L159:
	if st.stop-cycles <= 1 {
		bpc = 159
		goto budgetOut
	}
	// 09f: addi r7, r0, 0
	r[7] = 0 + 0x0
	cycles, instret = cycles+1, instret+1
L160:
	if st.stop-cycles <= 9 {
		bpc = 160
		goto budgetOut
	}
	// 0a0: addi r5, r13, 112
	r[5] = r[13] + 0x70
	// 0a1: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 161, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 0a2: addi r5, r7, 88
	r[5] = r[7] + 0x58
	// 0a3: lw r2, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 163, cycles+4, instret+3); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 0a4: sw r7, 180(r0)
	a = 0 + 0xb4
	v = r[7]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 164, cycles+6, instret+4) {
		goto errOut
	}
	// 0a5: jal r15, 80
	r[15] = 664
	cycles, instret = cycles+9, instret+6
	goto L245
L166:
	if st.stop-cycles <= 13 {
		bpc = 166
		goto budgetOut
	}
	// 0a6: addi r9, r1, 0
	r[9] = r[1] + 0x0
	// 0a7: lw r7, 180(r0)
	a = 0 + 0xb4
	if a&3 == 0 && a <= DataBytes-4 {
		r[7] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 167, cycles+1, instret+1); !ok {
			goto errOut
		}
		r[7] = v
	}
	// 0a8: addi r5, r13, 124
	r[5] = r[13] + 0x7c
	// 0a9: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 169, cycles+4, instret+3); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 0aa: addi r5, r7, 100
	r[5] = r[7] + 0x64
	// 0ab: lw r2, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 171, cycles+7, instret+5); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 0ac: sw r7, 180(r0)
	a = 0 + 0xb4
	v = r[7]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 172, cycles+9, instret+6) {
		goto errOut
	}
	// 0ad: sw r9, 188(r0)
	a = 0 + 0xbc
	v = r[9]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 173, cycles+10, instret+7) {
		goto errOut
	}
	// 0ae: jal r15, 71
	r[15] = 700
	cycles, instret = cycles+13, instret+9
	goto L245
L175:
	if st.stop-cycles <= 76 {
		bpc = 175
		goto budgetOut
	}
	// 0af: lw r9, 188(r0)
	a = 0 + 0xbc
	if a&3 == 0 && a <= DataBytes-4 {
		r[9] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 175, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[9] = v
	}
	// 0b0: lw r7, 180(r0)
	a = 0 + 0xb4
	if a&3 == 0 && a <= DataBytes-4 {
		r[7] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 176, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[7] = v
	}
	// 0b1: add r9, r9, r1
	r[9] = r[9] + r[1]
	// 0b2: add r5, r13, r13
	r[5] = r[13] + r[13]
	// 0b3: add r5, r5, r13
	r[5] = r[5] + r[13]
	// 0b4: add r5, r5, r7
	r[5] = r[5] + r[7]
	// 0b5: addi r5, r5, 24
	r[5] = r[5] + 0x18
	// 0b6: lw r6, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 182, cycles+9, instret+7); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 0b7: sub r6, r6, r9
	r[6] = r[6] - r[9]
	// 0b8: sw r6, 0(r5)
	a = r[5] + 0x0
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 184, cycles+12, instret+9) {
		goto errOut
	}
	// 0b9: addi r7, r7, 4
	r[7] = r[7] + 0x4
	// 0ba: addi r5, r0, 12
	r[5] = 0 + 0xc
	// 0bb: blt r7, r5, -27
	if int32(r[7]) < int32(r[5]) {
		cycles, instret = cycles+17, instret+13
		goto L160
	}
	cycles, instret = cycles+16, instret+13
	// 0bc: addi r13, r13, 4
	r[13] = r[13] + 0x4
	// 0bd: addi r5, r0, 12
	r[5] = 0 + 0xc
	// 0be: blt r13, r5, -31
	if int32(r[13]) < int32(r[5]) {
		cycles, instret = cycles+4, instret+3
		goto L159
	}
	cycles, instret = cycles+3, instret+3
	// 0bf: lw r5, 28(r0)
	a = 0 + 0x1c
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 191, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0c0: lw r6, 36(r0)
	a = 0 + 0x24
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 192, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 0c1: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 0c2: srli r6, r5, 31
	r[6] = r[5] >> 31
	// 0c3: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 0c4: srai r5, r5, 1
	r[5] = uint32(int32(r[5]) >> 1)
	// 0c5: sw r5, 28(r0)
	a = 0 + 0x1c
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 197, cycles+8, instret+6) {
		goto errOut
	}
	// 0c6: sw r5, 36(r0)
	a = 0 + 0x24
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 198, cycles+9, instret+7) {
		goto errOut
	}
	// 0c7: lw r5, 32(r0)
	a = 0 + 0x20
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 199, cycles+10, instret+8); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0c8: lw r6, 48(r0)
	a = 0 + 0x30
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 200, cycles+12, instret+9); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 0c9: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 0ca: srli r6, r5, 31
	r[6] = r[5] >> 31
	// 0cb: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 0cc: srai r5, r5, 1
	r[5] = uint32(int32(r[5]) >> 1)
	// 0cd: sw r5, 32(r0)
	a = 0 + 0x20
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 205, cycles+18, instret+14) {
		goto errOut
	}
	// 0ce: sw r5, 48(r0)
	a = 0 + 0x30
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 206, cycles+19, instret+15) {
		goto errOut
	}
	// 0cf: lw r5, 44(r0)
	a = 0 + 0x2c
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 207, cycles+20, instret+16); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0d0: lw r6, 52(r0)
	a = 0 + 0x34
	if a&3 == 0 && a <= DataBytes-4 {
		r[6] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 208, cycles+22, instret+17); !ok {
			goto errOut
		}
		r[6] = v
	}
	// 0d1: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 0d2: srli r6, r5, 31
	r[6] = r[5] >> 31
	// 0d3: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 0d4: srai r5, r5, 1
	r[5] = uint32(int32(r[5]) >> 1)
	// 0d5: sw r5, 44(r0)
	a = 0 + 0x2c
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 213, cycles+28, instret+22) {
		goto errOut
	}
	// 0d6: sw r5, 52(r0)
	a = 0 + 0x34
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 214, cycles+29, instret+23) {
		goto errOut
	}
	// 0d7: addi r6, r0, 1
	r[6] = 0 + 0x1
	// 0d8: lw r5, 24(r0)
	a = 0 + 0x18
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 216, cycles+31, instret+25); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0d9: bge r5, r6, 2
	if int32(r[5]) >= int32(r[6]) {
		cycles, instret = cycles+35, instret+27
		goto L219
	}
	cycles, instret = cycles+34, instret+27
	// 0da: sw r6, 24(r0)
	a = 0 + 0x18
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 218, cycles+0, instret+0) {
		goto errOut
	}
	cycles, instret = cycles+1, instret+1
L219:
	// 0db: lw r5, 40(r0)
	a = 0 + 0x28
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 219, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0dc: bge r5, r6, 2
	if int32(r[5]) >= int32(r[6]) {
		cycles, instret = cycles+4, instret+2
		goto L222
	}
	cycles, instret = cycles+3, instret+2
	// 0dd: sw r6, 40(r0)
	a = 0 + 0x28
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 221, cycles+0, instret+0) {
		goto errOut
	}
	cycles, instret = cycles+1, instret+1
L222:
	// 0de: lw r5, 56(r0)
	a = 0 + 0x38
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 222, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0df: bge r5, r6, 2
	if int32(r[5]) >= int32(r[6]) {
		cycles, instret = cycles+4, instret+2
		goto L225
	}
	cycles, instret = cycles+3, instret+2
	// 0e0: sw r6, 56(r0)
	a = 0 + 0x38
	v = r[6]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 224, cycles+0, instret+0) {
		goto errOut
	}
	cycles, instret = cycles+1, instret+1
L225:
	// 0e1: lw r5, 12(r0)
	a = 0 + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 225, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0e2: sw r5, 0(r12)
	a = r[12] + 0x0
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 226, cycles+2, instret+1) {
		goto errOut
	}
	// 0e3: lw r5, 16(r0)
	a = 0 + 0x10
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 227, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0e4: sw r5, 4(r12)
	a = r[12] + 0x4
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 228, cycles+5, instret+3) {
		goto errOut
	}
	// 0e5: lw r5, 20(r0)
	a = 0 + 0x14
	if a&3 == 0 && a <= DataBytes-4 {
		r[5] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 229, cycles+6, instret+4); !ok {
			goto errOut
		}
		r[5] = v
	}
	// 0e6: sw r5, 8(r12)
	a = r[12] + 0x8
	v = r[5]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 230, cycles+8, instret+5) {
		goto errOut
	}
	// 0e7: addi r12, r12, 12
	r[12] = r[12] + 0xc
	// 0e8: addi r11, r11, 20
	r[11] = r[11] + 0x14
	// 0e9: addi r10, r10, -1
	r[10] = r[10] + 0xffffffff
	// 0ea: jal r0, -230
	cycles, instret = cycles+14, instret+10
	goto L4
L235:
	if st.stop-cycles <= 1 {
		bpc = 235
		goto budgetOut
	}
	// 0eb: halt
	cycles, instret = cycles+1, instret+1
	st.pc = 236
	st.cycles, st.instret = cycles, instret
	return stHalt
L236:
	if st.stop-cycles <= 16 {
		bpc = 236
		goto budgetOut
	}
	// 0ec: mul r5, r1, r2
	r[5] = r[1] * r[2]
	// 0ed: mulhu r6, r1, r2
	r[6] = uint32(uint64(r[1]) * uint64(r[2]) >> 32)
	// 0ee: bge r1, r0, 2
	if int32(r[1]) >= int32(0) {
		cycles, instret = cycles+10, instret+3
		goto L240
	}
	cycles, instret = cycles+9, instret+3
	// 0ef: sub r6, r6, r2
	r[6] = r[6] - r[2]
	cycles, instret = cycles+1, instret+1
L240:
	// 0f0: bge r2, r0, 2
	if int32(r[2]) >= int32(0) {
		cycles, instret = cycles+2, instret+1
		goto L242
	}
	cycles, instret = cycles+1, instret+1
	// 0f1: sub r6, r6, r1
	r[6] = r[6] - r[1]
	cycles, instret = cycles+1, instret+1
L242:
	// 0f2: addi r1, r5, 0
	r[1] = r[5] + 0x0
	// 0f3: addi r2, r6, 0
	r[2] = r[6] + 0x0
	// 0f4: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+4, instret+3
	switch v {
	case 0:
		goto L0
	case 4:
		goto L4
	case 28:
		goto L28
	case 32:
		goto L32
	case 41:
		goto L41
	case 45:
		goto L45
	case 65:
		goto L65
	case 68:
		goto L68
	case 71:
		goto L71
	case 77:
		goto L77
	case 83:
		goto L83
	case 87:
		goto L87
	case 91:
		goto L91
	case 101:
		goto L101
	case 107:
		goto L107
	case 115:
		goto L115
	case 121:
		goto L121
	case 127:
		goto L127
	case 135:
		goto L135
	case 145:
		goto L145
	case 150:
		goto L150
	case 166:
		goto L166
	case 175:
		goto L175
	case 235:
		goto L235
	case 236:
		goto L236
	case 245:
		goto L245
	case 248:
		goto L248
	case 265:
		goto L265
	case 274:
		goto L274
	case 287:
		goto L287
	case 292:
		goto L292
	case 298:
		goto L298
	case 313:
		goto L313
	case 331:
		goto L331
	case 351:
		goto L351
	case 354:
		goto L354
	case 360:
		goto L360
	default:
		st.pc = v
		goto okOut
	}
L245:
	if st.stop-cycles <= 4 {
		bpc = 245
		goto budgetOut
	}
	// 0f5: addi r14, r14, -4
	r[14] = r[14] + 0xfffffffc
	// 0f6: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 246, cycles+1, instret+1) {
		goto errOut
	}
	// 0f7: jal r15, -11
	r[15] = 992
	cycles, instret = cycles+4, instret+3
	goto L236
L248:
	if st.stop-cycles <= 19 {
		bpc = 248
		goto budgetOut
	}
	// 0f8: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 248, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 0f9: addi r14, r14, 4
	r[14] = r[14] + 0x4
	// 0fa: bge r2, r0, 15
	if int32(r[2]) >= int32(0) {
		cycles, instret = cycles+5, instret+3
		goto L265
	}
	cycles, instret = cycles+4, instret+3
	// 0fb: sub r1, r0, r1
	r[1] = 0 - r[1]
	// 0fc: xori r2, r2, -1
	r[2] = r[2] ^ 0xffffffff
	// 0fd: bne r1, r0, 2
	if r[1] != 0 {
		cycles, instret = cycles+4, instret+3
		goto L255
	}
	cycles, instret = cycles+3, instret+3
	// 0fe: addi r2, r2, 1
	r[2] = r[2] + 0x1
	cycles, instret = cycles+1, instret+1
L255:
	// 0ff: lui r5, 0x80
	r[5] = 0x800000
	// 100: add r5, r5, r0
	r[5] = r[5] + 0
	// 101: add r6, r1, r5
	r[6] = r[1] + r[5]
	// 102: sltu r7, r6, r1
	r[7] = b2u(r[6] < r[1])
	// 103: add r2, r2, r7
	r[2] = r[2] + r[7]
	// 104: srli r6, r6, 24
	r[6] = r[6] >> 24
	// 105: slli r2, r2, 8
	r[2] = r[2] << 8
	// 106: or r1, r6, r2
	r[1] = r[6] | r[2]
	// 107: sub r1, r0, r1
	r[1] = 0 - r[1]
	// 108: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+11, instret+10
	switch v {
	case 0:
		goto L0
	case 4:
		goto L4
	case 28:
		goto L28
	case 32:
		goto L32
	case 41:
		goto L41
	case 45:
		goto L45
	case 65:
		goto L65
	case 68:
		goto L68
	case 71:
		goto L71
	case 77:
		goto L77
	case 83:
		goto L83
	case 87:
		goto L87
	case 91:
		goto L91
	case 101:
		goto L101
	case 107:
		goto L107
	case 115:
		goto L115
	case 121:
		goto L121
	case 127:
		goto L127
	case 135:
		goto L135
	case 145:
		goto L145
	case 150:
		goto L150
	case 166:
		goto L166
	case 175:
		goto L175
	case 235:
		goto L235
	case 236:
		goto L236
	case 245:
		goto L245
	case 248:
		goto L248
	case 265:
		goto L265
	case 274:
		goto L274
	case 287:
		goto L287
	case 292:
		goto L292
	case 298:
		goto L298
	case 313:
		goto L313
	case 331:
		goto L331
	case 351:
		goto L351
	case 354:
		goto L354
	case 360:
		goto L360
	default:
		st.pc = v
		goto okOut
	}
L265:
	if st.stop-cycles <= 10 {
		bpc = 265
		goto budgetOut
	}
	// 109: lui r5, 0x80
	r[5] = 0x800000
	// 10a: add r5, r5, r0
	r[5] = r[5] + 0
	// 10b: add r6, r1, r5
	r[6] = r[1] + r[5]
	// 10c: sltu r7, r6, r1
	r[7] = b2u(r[6] < r[1])
	// 10d: add r2, r2, r7
	r[2] = r[2] + r[7]
	// 10e: srli r6, r6, 24
	r[6] = r[6] >> 24
	// 10f: slli r2, r2, 8
	r[2] = r[2] << 8
	// 110: or r1, r6, r2
	r[1] = r[6] | r[2]
	// 111: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+10, instret+9
	switch v {
	case 0:
		goto L0
	case 4:
		goto L4
	case 28:
		goto L28
	case 32:
		goto L32
	case 41:
		goto L41
	case 45:
		goto L45
	case 65:
		goto L65
	case 68:
		goto L68
	case 71:
		goto L71
	case 77:
		goto L77
	case 83:
		goto L83
	case 87:
		goto L87
	case 91:
		goto L91
	case 101:
		goto L101
	case 107:
		goto L107
	case 115:
		goto L115
	case 121:
		goto L121
	case 127:
		goto L127
	case 135:
		goto L135
	case 145:
		goto L145
	case 150:
		goto L150
	case 166:
		goto L166
	case 175:
		goto L175
	case 235:
		goto L235
	case 236:
		goto L236
	case 245:
		goto L245
	case 248:
		goto L248
	case 265:
		goto L265
	case 274:
		goto L274
	case 287:
		goto L287
	case 292:
		goto L292
	case 298:
		goto L298
	case 313:
		goto L313
	case 331:
		goto L331
	case 351:
		goto L351
	case 354:
		goto L354
	case 360:
		goto L360
	default:
		st.pc = v
		goto okOut
	}
L274:
	if st.stop-cycles <= 10 {
		bpc = 274
		goto budgetOut
	}
	// 112: addi r14, r14, -20
	r[14] = r[14] + 0xffffffec
	// 113: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 275, cycles+1, instret+1) {
		goto errOut
	}
	// 114: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 276, cycles+2, instret+2) {
		goto errOut
	}
	// 115: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 277, cycles+3, instret+3) {
		goto errOut
	}
	// 116: sw r12, 12(r14)
	a = r[14] + 0xc
	v = r[12]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 278, cycles+4, instret+4) {
		goto errOut
	}
	// 117: sw r13, 16(r14)
	a = r[14] + 0x10
	v = r[13]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 279, cycles+5, instret+5) {
		goto errOut
	}
	// 118: addi r10, r1, 0
	r[10] = r[1] + 0x0
	// 119: addi r11, r2, 0
	r[11] = r[2] + 0x0
	// 11a: addi r12, r0, 24
	r[12] = 0 + 0x18
	// 11b: addi r13, r0, 0
	r[13] = 0 + 0x0
	cycles, instret = cycles+10, instret+10
L284:
	if st.stop-cycles <= 6 {
		bpc = 284
		goto budgetOut
	}
	// 11c: lw r1, 0(r12)
	a = r[12] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 284, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 11d: lw r2, 0(r10)
	a = r[10] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 285, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 11e: jal r15, -41
	r[15] = 1148
	cycles, instret = cycles+6, instret+3
	goto L245
L287:
	if st.stop-cycles <= 8 {
		bpc = 287
		goto budgetOut
	}
	// 11f: addi r9, r1, 0
	r[9] = r[1] + 0x0
	// 120: sw r9, 192(r0)
	a = 0 + 0xc0
	v = r[9]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 288, cycles+1, instret+1) {
		goto errOut
	}
	// 121: lw r1, 4(r12)
	a = r[12] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 289, cycles+2, instret+2); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 122: lw r2, 4(r10)
	a = r[10] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 290, cycles+4, instret+3); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 123: jal r15, -46
	r[15] = 1168
	cycles, instret = cycles+8, instret+5
	goto L245
L292:
	if st.stop-cycles <= 10 {
		bpc = 292
		goto budgetOut
	}
	// 124: lw r9, 192(r0)
	a = 0 + 0xc0
	if a&3 == 0 && a <= DataBytes-4 {
		r[9] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 292, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[9] = v
	}
	// 125: add r9, r9, r1
	r[9] = r[9] + r[1]
	// 126: sw r9, 192(r0)
	a = 0 + 0xc0
	v = r[9]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 294, cycles+3, instret+2) {
		goto errOut
	}
	// 127: lw r1, 8(r12)
	a = r[12] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 295, cycles+4, instret+3); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 128: lw r2, 8(r10)
	a = r[10] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 296, cycles+6, instret+4); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 129: jal r15, -52
	r[15] = 1192
	cycles, instret = cycles+10, instret+6
	goto L245
L298:
	if st.stop-cycles <= 22 {
		bpc = 298
		goto budgetOut
	}
	// 12a: lw r9, 192(r0)
	a = 0 + 0xc0
	if a&3 == 0 && a <= DataBytes-4 {
		r[9] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 298, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[9] = v
	}
	// 12b: add r9, r9, r1
	r[9] = r[9] + r[1]
	// 12c: sw r9, 0(r11)
	a = r[11] + 0x0
	v = r[9]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 300, cycles+3, instret+2) {
		goto errOut
	}
	// 12d: addi r11, r11, 4
	r[11] = r[11] + 0x4
	// 12e: addi r12, r12, 12
	r[12] = r[12] + 0xc
	// 12f: addi r13, r13, 1
	r[13] = r[13] + 0x1
	// 130: addi r5, r0, 3
	r[5] = 0 + 0x3
	// 131: blt r13, r5, -21
	if int32(r[13]) < int32(r[5]) {
		cycles, instret = cycles+10, instret+8
		goto L284
	}
	cycles, instret = cycles+9, instret+8
	// 132: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 306, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 133: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 307, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 134: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 308, cycles+4, instret+2); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 135: lw r12, 12(r14)
	a = r[14] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[12] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 309, cycles+6, instret+3); !ok {
			goto errOut
		}
		r[12] = v
	}
	// 136: lw r13, 16(r14)
	a = r[14] + 0x10
	if a&3 == 0 && a <= DataBytes-4 {
		r[13] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 310, cycles+8, instret+4); !ok {
			goto errOut
		}
		r[13] = v
	}
	// 137: addi r14, r14, 20
	r[14] = r[14] + 0x14
	// 138: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+13, instret+7
	switch v {
	case 0:
		goto L0
	case 4:
		goto L4
	case 28:
		goto L28
	case 32:
		goto L32
	case 41:
		goto L41
	case 45:
		goto L45
	case 65:
		goto L65
	case 68:
		goto L68
	case 71:
		goto L71
	case 77:
		goto L77
	case 83:
		goto L83
	case 87:
		goto L87
	case 91:
		goto L91
	case 101:
		goto L101
	case 107:
		goto L107
	case 115:
		goto L115
	case 121:
		goto L121
	case 127:
		goto L127
	case 135:
		goto L135
	case 145:
		goto L145
	case 150:
		goto L150
	case 166:
		goto L166
	case 175:
		goto L175
	case 235:
		goto L235
	case 236:
		goto L236
	case 245:
		goto L245
	case 248:
		goto L248
	case 265:
		goto L265
	case 274:
		goto L274
	case 287:
		goto L287
	case 292:
		goto L292
	case 298:
		goto L298
	case 313:
		goto L313
	case 331:
		goto L331
	case 351:
		goto L351
	case 354:
		goto L354
	case 360:
		goto L360
	default:
		st.pc = v
		goto okOut
	}
L313:
	if st.stop-cycles <= 12 {
		bpc = 313
		goto budgetOut
	}
	// 139: addi r14, r14, -20
	r[14] = r[14] + 0xffffffec
	// 13a: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 314, cycles+1, instret+1) {
		goto errOut
	}
	// 13b: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 315, cycles+2, instret+2) {
		goto errOut
	}
	// 13c: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 316, cycles+3, instret+3) {
		goto errOut
	}
	// 13d: sw r12, 12(r14)
	a = r[14] + 0xc
	v = r[12]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 317, cycles+4, instret+4) {
		goto errOut
	}
	// 13e: sw r13, 16(r14)
	a = r[14] + 0x10
	v = r[13]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 318, cycles+5, instret+5) {
		goto errOut
	}
	// 13f: addi r10, r1, 0
	r[10] = r[1] + 0x0
	// 140: addi r11, r2, 0
	r[11] = r[2] + 0x0
	// 141: addi r12, r0, 0
	r[12] = 0 + 0x0
	// 142: addi r13, r0, 0
	r[13] = 0 + 0x0
	// 143: addi r9, r0, 0
	r[9] = 0 + 0x0
	// 144: sw r9, 196(r0)
	a = 0 + 0xc4
	v = r[9]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 324, cycles+11, instret+11) {
		goto errOut
	}
	cycles, instret = cycles+12, instret+12
L325:
	if st.stop-cycles <= 10 {
		bpc = 325
		goto budgetOut
	}
	// 145: lw r9, 196(r0)
	a = 0 + 0xc4
	if a&3 == 0 && a <= DataBytes-4 {
		r[9] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 325, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[9] = v
	}
	// 146: add r5, r10, r9
	r[5] = r[10] + r[9]
	// 147: lw r1, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[1] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 327, cycles+3, instret+2); !ok {
			goto errOut
		}
		r[1] = v
	}
	// 148: add r5, r11, r9
	r[5] = r[11] + r[9]
	// 149: lw r2, 0(r5)
	a = r[5] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[2] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 329, cycles+6, instret+4); !ok {
			goto errOut
		}
		r[2] = v
	}
	// 14a: jal r15, -94
	r[15] = 1324
	cycles, instret = cycles+10, instret+6
	goto L236
L331:
	if st.stop-cycles <= 27 {
		bpc = 331
		goto budgetOut
	}
	// 14b: add r5, r12, r1
	r[5] = r[12] + r[1]
	// 14c: sltu r6, r5, r12
	r[6] = b2u(r[5] < r[12])
	// 14d: addi r12, r5, 0
	r[12] = r[5] + 0x0
	// 14e: add r13, r13, r2
	r[13] = r[13] + r[2]
	// 14f: add r13, r13, r6
	r[13] = r[13] + r[6]
	// 150: lw r9, 196(r0)
	a = 0 + 0xc4
	if a&3 == 0 && a <= DataBytes-4 {
		r[9] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 336, cycles+5, instret+5); !ok {
			goto errOut
		}
		r[9] = v
	}
	// 151: addi r9, r9, 4
	r[9] = r[9] + 0x4
	// 152: sw r9, 196(r0)
	a = 0 + 0xc4
	v = r[9]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 338, cycles+8, instret+7) {
		goto errOut
	}
	// 153: addi r5, r0, 12
	r[5] = 0 + 0xc
	// 154: blt r9, r5, -15
	if int32(r[9]) < int32(r[5]) {
		cycles, instret = cycles+12, instret+10
		goto L325
	}
	cycles, instret = cycles+11, instret+10
	// 155: srli r1, r12, 18
	r[1] = r[12] >> 18
	// 156: slli r5, r13, 14
	r[5] = r[13] << 14
	// 157: or r1, r1, r5
	r[1] = r[1] | r[5]
	// 158: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 344, cycles+3, instret+3); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 159: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 345, cycles+5, instret+4); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 15a: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 346, cycles+7, instret+5); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 15b: lw r12, 12(r14)
	a = r[14] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[12] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 347, cycles+9, instret+6); !ok {
			goto errOut
		}
		r[12] = v
	}
	// 15c: lw r13, 16(r14)
	a = r[14] + 0x10
	if a&3 == 0 && a <= DataBytes-4 {
		r[13] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 348, cycles+11, instret+7); !ok {
			goto errOut
		}
		r[13] = v
	}
	// 15d: addi r14, r14, 20
	r[14] = r[14] + 0x14
	// 15e: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+16, instret+10
	switch v {
	case 0:
		goto L0
	case 4:
		goto L4
	case 28:
		goto L28
	case 32:
		goto L32
	case 41:
		goto L41
	case 45:
		goto L45
	case 65:
		goto L65
	case 68:
		goto L68
	case 71:
		goto L71
	case 77:
		goto L77
	case 83:
		goto L83
	case 87:
		goto L87
	case 91:
		goto L91
	case 101:
		goto L101
	case 107:
		goto L107
	case 115:
		goto L115
	case 121:
		goto L121
	case 127:
		goto L127
	case 135:
		goto L135
	case 145:
		goto L145
	case 150:
		goto L150
	case 166:
		goto L166
	case 175:
		goto L175
	case 235:
		goto L235
	case 236:
		goto L236
	case 245:
		goto L245
	case 248:
		goto L248
	case 265:
		goto L265
	case 274:
		goto L274
	case 287:
		goto L287
	case 292:
		goto L292
	case 298:
		goto L298
	case 313:
		goto L313
	case 331:
		goto L331
	case 351:
		goto L351
	case 354:
		goto L354
	case 360:
		goto L360
	default:
		st.pc = v
		goto okOut
	}
L351:
	if st.stop-cycles <= 4 {
		bpc = 351
		goto budgetOut
	}
	// 15f: addi r14, r14, -4
	r[14] = r[14] + 0xfffffffc
	// 160: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 352, cycles+1, instret+1) {
		goto errOut
	}
	// 161: jal r15, -117
	r[15] = 1416
	cycles, instret = cycles+4, instret+3
	goto L236
L354:
	if st.stop-cycles <= 8 {
		bpc = 354
		goto budgetOut
	}
	// 162: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 354, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 163: addi r14, r14, 4
	r[14] = r[14] + 0x4
	// 164: srli r1, r1, 30
	r[1] = r[1] >> 30
	// 165: slli r2, r2, 2
	r[2] = r[2] << 2
	// 166: or r1, r1, r2
	r[1] = r[1] | r[2]
	// 167: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+8, instret+6
	switch v {
	case 0:
		goto L0
	case 4:
		goto L4
	case 28:
		goto L28
	case 32:
		goto L32
	case 41:
		goto L41
	case 45:
		goto L45
	case 65:
		goto L65
	case 68:
		goto L68
	case 71:
		goto L71
	case 77:
		goto L77
	case 83:
		goto L83
	case 87:
		goto L87
	case 91:
		goto L91
	case 101:
		goto L101
	case 107:
		goto L107
	case 115:
		goto L115
	case 121:
		goto L121
	case 127:
		goto L127
	case 135:
		goto L135
	case 145:
		goto L145
	case 150:
		goto L150
	case 166:
		goto L166
	case 175:
		goto L175
	case 235:
		goto L235
	case 236:
		goto L236
	case 245:
		goto L245
	case 248:
		goto L248
	case 265:
		goto L265
	case 274:
		goto L274
	case 287:
		goto L287
	case 292:
		goto L292
	case 298:
		goto L298
	case 313:
		goto L313
	case 331:
		goto L331
	case 351:
		goto L351
	case 354:
		goto L354
	case 360:
		goto L360
	default:
		st.pc = v
		goto okOut
	}
L360:
	if st.stop-cycles <= 10 {
		bpc = 360
		goto budgetOut
	}
	// 168: addi r9, r0, 0
	r[9] = 0 + 0x0
	// 169: bge r2, r0, 6
	if int32(r[2]) >= int32(0) {
		cycles, instret = cycles+3, instret+2
		goto L367
	}
	cycles, instret = cycles+2, instret+2
	// 16a: addi r9, r0, 1
	r[9] = 0 + 0x1
	// 16b: sub r1, r0, r1
	r[1] = 0 - r[1]
	// 16c: xori r2, r2, -1
	r[2] = r[2] ^ 0xffffffff
	// 16d: bne r1, r0, 2
	if r[1] != 0 {
		cycles, instret = cycles+5, instret+4
		goto L367
	}
	cycles, instret = cycles+4, instret+4
	// 16e: addi r2, r2, 1
	r[2] = r[2] + 0x1
	cycles, instret = cycles+1, instret+1
L367:
	// 16f: addi r5, r0, 0
	r[5] = 0 + 0x0
	// 170: addi r6, r0, 0
	r[6] = 0 + 0x0
	// 171: addi r7, r0, 32
	r[7] = 0 + 0x20
	cycles, instret = cycles+3, instret+3
L370:
	if st.stop-cycles <= 11 {
		bpc = 370
		goto budgetOut
	}
	// 172: srli r8, r2, 31
	r[8] = r[2] >> 31
	// 173: slli r2, r2, 1
	r[2] = r[2] << 1
	// 174: slli r5, r5, 1
	r[5] = r[5] << 1
	// 175: or r5, r5, r8
	r[5] = r[5] | r[8]
	// 176: slli r6, r6, 1
	r[6] = r[6] << 1
	// 177: bltu r5, r3, 3
	if r[5] < r[3] {
		cycles, instret = cycles+7, instret+6
		goto L378
	}
	cycles, instret = cycles+6, instret+6
	// 178: sub r5, r5, r3
	r[5] = r[5] - r[3]
	// 179: ori r6, r6, 1
	r[6] = r[6] | 0x1
	cycles, instret = cycles+2, instret+2
L378:
	// 17a: addi r7, r7, -1
	r[7] = r[7] + 0xffffffff
	// 17b: bne r7, r0, -9
	if r[7] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L370
	}
	cycles, instret = cycles+2, instret+2
	// 17c: addi r7, r0, 32
	r[7] = 0 + 0x20
	cycles, instret = cycles+1, instret+1
L381:
	if st.stop-cycles <= 15 {
		bpc = 381
		goto budgetOut
	}
	// 17d: srli r8, r1, 31
	r[8] = r[1] >> 31
	// 17e: slli r1, r1, 1
	r[1] = r[1] << 1
	// 17f: slli r5, r5, 1
	r[5] = r[5] << 1
	// 180: or r5, r5, r8
	r[5] = r[5] | r[8]
	// 181: slli r6, r6, 1
	r[6] = r[6] << 1
	// 182: bltu r5, r3, 3
	if r[5] < r[3] {
		cycles, instret = cycles+7, instret+6
		goto L389
	}
	cycles, instret = cycles+6, instret+6
	// 183: sub r5, r5, r3
	r[5] = r[5] - r[3]
	// 184: ori r6, r6, 1
	r[6] = r[6] | 0x1
	cycles, instret = cycles+2, instret+2
L389:
	// 185: addi r7, r7, -1
	r[7] = r[7] + 0xffffffff
	// 186: bne r7, r0, -9
	if r[7] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L381
	}
	cycles, instret = cycles+2, instret+2
	// 187: addi r1, r6, 0
	r[1] = r[6] + 0x0
	// 188: beq r9, r0, 2
	if r[9] == 0 {
		cycles, instret = cycles+3, instret+2
		goto L394
	}
	cycles, instret = cycles+2, instret+2
	// 189: sub r1, r0, r1
	r[1] = 0 - r[1]
	cycles, instret = cycles+1, instret+1
L394:
	// 18a: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+2, instret+1
	switch v {
	case 0:
		goto L0
	case 4:
		goto L4
	case 28:
		goto L28
	case 32:
		goto L32
	case 41:
		goto L41
	case 45:
		goto L45
	case 65:
		goto L65
	case 68:
		goto L68
	case 71:
		goto L71
	case 77:
		goto L77
	case 83:
		goto L83
	case 87:
		goto L87
	case 91:
		goto L91
	case 101:
		goto L101
	case 107:
		goto L107
	case 115:
		goto L115
	case 121:
		goto L121
	case 127:
		goto L127
	case 135:
		goto L135
	case 145:
		goto L145
	case 150:
		goto L150
	case 166:
		goto L166
	case 175:
		goto L175
	case 235:
		goto L235
	case 236:
		goto L236
	case 245:
		goto L245
	case 248:
		goto L248
	case 265:
		goto L265
	case 274:
		goto L274
	case 287:
		goto L287
	case 292:
		goto L292
	case 298:
		goto L298
	case 313:
		goto L313
	case 331:
		goto L331
	case 351:
		goto L351
	case 354:
		goto L354
	case 360:
		goto L360
	default:
		st.pc = v
		goto okOut
	}
budgetOut:
	st.pc = bpc
	st.cycles, st.instret = cycles, instret
	return stBudget
errOut:
	return stErr
okOut:
	st.cycles, st.instret = cycles, instret
	return stOK
}
