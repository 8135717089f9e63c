// Code generated by kernelgen_test.go (go test ./internal/sabre/ -run TestGenerateKernels -update-kernels); DO NOT EDIT.
//
// Whole-program kernels for the fast engine. See kernelgen_test.go for
// the emission rules and kernel.go for how a kernel binds.

package sabre

// kernels lists the generated kernels that matchKernel tries.
var kernels = []*genKernel{&kernelKalman, &kernelFxBoresight}

// kernelKalman runs the Kalman program: 786 words, 125 leaders.
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
		27: 4, 29: 7, 35: 1, 36: 10, 47: 4, 50: 26, 75: 3, 77: 13,
		89: 13, 101: 4, 104: 16, 119: 4, 122: 2, 124: 15, 138: 4, 142: 11,
		148: 9, 156: 13, 165: 6, 170: 6, 175: 5, 179: 21, 196: 7, 202: 3,
		204: 2, 205: 6, 210: 6, 215: 3, 217: 15, 263: 13, 270: 27, 296: 4,
		299: 3, 302: 5, 306: 3, 308: 5, 312: 4, 315: 3, 318: 5, 322: 1,
		323: 14, 336: 2, 337: 6, 342: 7, 348: 9, 356: 2, 357: 2, 358: 11,
		364: 28, 391: 4, 394: 3, 397: 5, 401: 8, 408: 5, 412: 4, 415: 3,
		418: 5, 422: 7, 428: 8, 435: 7, 441: 4, 444: 3, 447: 5, 451: 2,
		452: 2, 453: 11, 459: 23, 481: 6, 486: 8, 493: 6, 498: 31, 502: 3,
		504: 33, 512: 3, 514: 31, 538: 2, 539: 2, 540: 11, 546: 25, 570: 5,
		574: 17, 581: 3, 583: 19, 591: 3, 593: 17, 609: 2, 611: 3, 629: 2,
		630: 6, 635: 2, 636: 11, 642: 3, 644: 7, 650: 8, 657: 24, 680: 4,
		683: 4, 686: 4, 689: 6, 694: 12, 706: 5, 710: 12, 721: 8, 728: 4,
		731: 11, 740: 3, 742: 4, 745: 13, 754: 5, 756: 7, 762: 3, 764: 4,
		767: 11, 776: 3, 778: 5, 782: 3, 784: 3,
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
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
	goto L165
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
	goto L546
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
	goto L170
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
	goto L459
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
	goto L165
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
	goto L170
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
	goto L459
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
	goto L165
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
L36:
	if st.stop-cycles <= 10 {
		bpc = 36
		goto budgetOut
	}
	// 024: beq r2, r0, 10
	if r[2] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L46
	}
	cycles, instret = cycles+1, instret+1
	// 025: sltiu r5, r2, 32
	r[5] = b2u(r[2] < 0x20)
	// 026: beq r5, r0, 9
	if r[5] == 0 {
		cycles, instret = cycles+3, instret+2
		goto L47
	}
	cycles, instret = cycles+2, instret+2
	// 027: srl r6, r1, r2
	r[6] = r[1] >> (r[2] & 31)
	// 028: addi r5, r0, 32
	r[5] = 0 + 0x20
	// 029: sub r5, r5, r2
	r[5] = r[5] - r[2]
	// 02a: sll r5, r1, r5
	r[5] = r[1] << (r[5] & 31)
	// 02b: beq r5, r0, 2
	if r[5] == 0 {
		cycles, instret = cycles+6, instret+5
		goto L45
	}
	cycles, instret = cycles+5, instret+5
	// 02c: ori r6, r6, 1
	r[6] = r[6] | 0x1
	cycles, instret = cycles+1, instret+1
L45:
	// 02d: addi r1, r6, 0
	r[1] = r[6] + 0x0
	cycles, instret = cycles+1, instret+1
L46:
	if st.stop-cycles <= 2 {
		bpc = 46
		goto budgetOut
	}
	// 02e: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+2, instret+1
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L47:
	if st.stop-cycles <= 4 {
		bpc = 47
		goto budgetOut
	}
	// 02f: beq r1, r0, -1
	if r[1] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L46
	}
	cycles, instret = cycles+1, instret+1
	// 030: addi r1, r0, 1
	r[1] = 0 + 0x1
	// 031: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L50:
	if st.stop-cycles <= 26 {
		bpc = 50
		goto budgetOut
	}
	// 032: beq r1, r0, 25
	if r[1] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L75
	}
	cycles, instret = cycles+1, instret+1
	// 033: addi r5, r0, 0
	r[5] = 0 + 0x0
	// 034: addi r6, r0, 65536
	r[6] = 0 + 0x10000
	// 035: bgeu r1, r6, 3
	if r[1] >= r[6] {
		cycles, instret = cycles+4, instret+3
		goto L56
	}
	cycles, instret = cycles+3, instret+3
	// 036: addi r5, r5, 16
	r[5] = r[5] + 0x10
	// 037: slli r1, r1, 16
	r[1] = r[1] << 16
	cycles, instret = cycles+2, instret+2
L56:
	// 038: lui r6, 0x100
	r[6] = 0x1000000
	// 039: add r6, r6, r0
	r[6] = r[6] + 0
	// 03a: bgeu r1, r6, 3
	if r[1] >= r[6] {
		cycles, instret = cycles+4, instret+3
		goto L61
	}
	cycles, instret = cycles+3, instret+3
	// 03b: addi r5, r5, 8
	r[5] = r[5] + 0x8
	// 03c: slli r1, r1, 8
	r[1] = r[1] << 8
	cycles, instret = cycles+2, instret+2
L61:
	// 03d: lui r6, 0x1000
	r[6] = 0x10000000
	// 03e: add r6, r6, r0
	r[6] = r[6] + 0
	// 03f: bgeu r1, r6, 3
	if r[1] >= r[6] {
		cycles, instret = cycles+4, instret+3
		goto L66
	}
	cycles, instret = cycles+3, instret+3
	// 040: addi r5, r5, 4
	r[5] = r[5] + 0x4
	// 041: slli r1, r1, 4
	r[1] = r[1] << 4
	cycles, instret = cycles+2, instret+2
L66:
	// 042: lui r6, 0x4000
	r[6] = 0x40000000
	// 043: add r6, r6, r0
	r[6] = r[6] + 0
	// 044: bgeu r1, r6, 3
	if r[1] >= r[6] {
		cycles, instret = cycles+4, instret+3
		goto L71
	}
	cycles, instret = cycles+3, instret+3
	// 045: addi r5, r5, 2
	r[5] = r[5] + 0x2
	// 046: slli r1, r1, 2
	r[1] = r[1] << 2
	cycles, instret = cycles+2, instret+2
L71:
	// 047: blt r1, r0, 2
	if int32(r[1]) < int32(0) {
		cycles, instret = cycles+2, instret+1
		goto L73
	}
	cycles, instret = cycles+1, instret+1
	// 048: addi r5, r5, 1
	r[5] = r[5] + 0x1
	cycles, instret = cycles+1, instret+1
L73:
	// 049: addi r1, r5, 0
	r[1] = r[5] + 0x0
	// 04a: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L75:
	if st.stop-cycles <= 3 {
		bpc = 75
		goto budgetOut
	}
	// 04b: addi r1, r0, 32
	r[1] = 0 + 0x20
	// 04c: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L77:
	if st.stop-cycles <= 13 {
		bpc = 77
		goto budgetOut
	}
	// 04d: lui r5, 0x7f
	r[5] = 0x7f0000
	// 04e: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 04f: and r6, r1, r5
	r[6] = r[1] & r[5]
	// 050: srli r7, r1, 23
	r[7] = r[1] >> 23
	// 051: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 052: addi r8, r0, 255
	r[8] = 0 + 0xff
	// 053: bne r7, r8, 6
	if r[7] != r[8] {
		cycles, instret = cycles+8, instret+7
		goto L89
	}
	cycles, instret = cycles+7, instret+7
	// 054: beq r6, r0, 5
	if r[6] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L89
	}
	cycles, instret = cycles+1, instret+1
	// 055: lui r5, 0x40
	r[5] = 0x400000
	// 056: add r5, r5, r0
	r[5] = r[5] + 0
	// 057: or r1, r1, r5
	r[1] = r[1] | r[5]
	// 058: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+5, instret+4
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L89:
	if st.stop-cycles <= 13 {
		bpc = 89
		goto budgetOut
	}
	// 059: lui r5, 0x7f
	r[5] = 0x7f0000
	// 05a: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 05b: and r6, r2, r5
	r[6] = r[2] & r[5]
	// 05c: srli r7, r2, 23
	r[7] = r[2] >> 23
	// 05d: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 05e: addi r8, r0, 255
	r[8] = 0 + 0xff
	// 05f: bne r7, r8, 6
	if r[7] != r[8] {
		cycles, instret = cycles+8, instret+7
		goto L101
	}
	cycles, instret = cycles+7, instret+7
	// 060: beq r6, r0, 5
	if r[6] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L101
	}
	cycles, instret = cycles+1, instret+1
	// 061: lui r5, 0x40
	r[5] = 0x400000
	// 062: add r5, r5, r0
	r[5] = r[5] + 0
	// 063: or r1, r2, r5
	r[1] = r[2] | r[5]
	// 064: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+5, instret+4
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L101:
	if st.stop-cycles <= 4 {
		bpc = 101
		goto budgetOut
	}
	// 065: lui r1, 0x7fc0
	r[1] = 0x7fc00000
	// 066: add r1, r1, r0
	r[1] = r[1] + 0
	// 067: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+4, instret+3
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L104:
	if st.stop-cycles <= 16 {
		bpc = 104
		goto budgetOut
	}
	// 068: addi r14, r14, -16
	r[14] = r[14] + 0xfffffff0
	// 069: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 105, cycles+1, instret+1) {
		goto errOut
	}
	// 06a: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 106, cycles+2, instret+2) {
		goto errOut
	}
	// 06b: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 107, cycles+3, instret+3) {
		goto errOut
	}
	// 06c: sw r12, 12(r14)
	a = r[14] + 0xc
	v = r[12]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 108, cycles+4, instret+4) {
		goto errOut
	}
	// 06d: addi r10, r1, 0
	r[10] = r[1] + 0x0
	// 06e: addi r11, r2, 0
	r[11] = r[2] + 0x0
	// 06f: addi r12, r3, 0
	r[12] = r[3] + 0x0
	// 070: addi r5, r0, 253
	r[5] = 0 + 0xfd
	// 071: bltu r11, r5, 11
	if r[11] < r[5] {
		cycles, instret = cycles+11, instret+10
		goto L124
	}
	cycles, instret = cycles+10, instret+10
	// 072: blt r5, r11, 24
	if int32(r[5]) < int32(r[11]) {
		cycles, instret = cycles+2, instret+1
		goto L138
	}
	cycles, instret = cycles+1, instret+1
	// 073: bne r11, r5, 4
	if r[11] != r[5] {
		cycles, instret = cycles+2, instret+1
		goto L119
	}
	cycles, instret = cycles+1, instret+1
	// 074: addi r6, r12, 64
	r[6] = r[12] + 0x40
	// 075: blt r6, r0, 21
	if int32(r[6]) < int32(0) {
		cycles, instret = cycles+3, instret+2
		goto L138
	}
	cycles, instret = cycles+2, instret+2
	// 076: jal r0, 6
	cycles, instret = cycles+2, instret+1
	goto L124
L119:
	if st.stop-cycles <= 4 {
		bpc = 119
		goto budgetOut
	}
	// 077: addi r1, r12, 0
	r[1] = r[12] + 0x0
	// 078: sub r2, r0, r11
	r[2] = 0 - r[11]
	// 079: jal r15, -85
	r[15] = 488
	cycles, instret = cycles+4, instret+3
	goto L36
L122:
	if st.stop-cycles <= 2 {
		bpc = 122
		goto budgetOut
	}
	// 07a: addi r12, r1, 0
	r[12] = r[1] + 0x0
	// 07b: addi r11, r0, 0
	r[11] = 0 + 0x0
	cycles, instret = cycles+2, instret+2
L124:
	if st.stop-cycles <= 15 {
		bpc = 124
		goto budgetOut
	}
	// 07c: andi r5, r12, 127
	r[5] = r[12] & 0x7f
	// 07d: addi r12, r12, 64
	r[12] = r[12] + 0x40
	// 07e: srli r12, r12, 7
	r[12] = r[12] >> 7
	// 07f: addi r6, r0, 64
	r[6] = 0 + 0x40
	// 080: bne r5, r6, 3
	if r[5] != r[6] {
		cycles, instret = cycles+6, instret+5
		goto L131
	}
	cycles, instret = cycles+5, instret+5
	// 081: addi r7, r0, -2
	r[7] = 0 + 0xfffffffe
	// 082: and r12, r12, r7
	r[12] = r[12] & r[7]
	cycles, instret = cycles+2, instret+2
L131:
	// 083: bne r12, r0, 2
	if r[12] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L133
	}
	cycles, instret = cycles+1, instret+1
	// 084: addi r11, r0, 0
	r[11] = 0 + 0x0
	cycles, instret = cycles+1, instret+1
L133:
	// 085: slli r5, r10, 31
	r[5] = r[10] << 31
	// 086: slli r6, r11, 23
	r[6] = r[11] << 23
	// 087: add r1, r5, r6
	r[1] = r[5] + r[6]
	// 088: add r1, r1, r12
	r[1] = r[1] + r[12]
	// 089: jal r0, 5
	cycles, instret = cycles+6, instret+5
	goto L142
L138:
	if st.stop-cycles <= 4 {
		bpc = 138
		goto budgetOut
	}
	// 08a: slli r1, r10, 31
	r[1] = r[10] << 31
	// 08b: lui r5, 0x7f80
	r[5] = 0x7f800000
	// 08c: add r5, r5, r0
	r[5] = r[5] + 0
	// 08d: or r1, r1, r5
	r[1] = r[1] | r[5]
	cycles, instret = cycles+4, instret+4
L142:
	if st.stop-cycles <= 11 {
		bpc = 142
		goto budgetOut
	}
	// 08e: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 142, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 08f: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 143, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 090: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 144, cycles+4, instret+2); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 091: lw r12, 12(r14)
	a = r[14] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[12] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 145, cycles+6, instret+3); !ok {
			goto errOut
		}
		r[12] = v
	}
	// 092: addi r14, r14, 16
	r[14] = r[14] + 0x10
	// 093: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+11, instret+6
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L148:
	if st.stop-cycles <= 9 {
		bpc = 148
		goto budgetOut
	}
	// 094: addi r14, r14, -12
	r[14] = r[14] + 0xfffffff4
	// 095: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 149, cycles+1, instret+1) {
		goto errOut
	}
	// 096: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 150, cycles+2, instret+2) {
		goto errOut
	}
	// 097: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 151, cycles+3, instret+3) {
		goto errOut
	}
	// 098: addi r10, r1, 0
	r[10] = r[1] + 0x0
	// 099: addi r11, r2, 0
	r[11] = r[2] + 0x0
	// 09a: addi r1, r3, 0
	r[1] = r[3] + 0x0
	// 09b: jal r15, -105
	r[15] = 624
	cycles, instret = cycles+9, instret+8
	goto L50
L156:
	if st.stop-cycles <= 13 {
		bpc = 156
		goto budgetOut
	}
	// 09c: addi r7, r1, -1
	r[7] = r[1] + 0xffffffff
	// 09d: sub r2, r11, r7
	r[2] = r[11] - r[7]
	// 09e: sll r3, r3, r7
	r[3] = r[3] << (r[7] & 31)
	// 09f: addi r1, r10, 0
	r[1] = r[10] + 0x0
	// 0a0: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 160, cycles+4, instret+4); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 0a1: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 161, cycles+6, instret+5); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 0a2: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 162, cycles+8, instret+6); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 0a3: addi r14, r14, 12
	r[14] = r[14] + 0xc
	// 0a4: jal r0, -60
	cycles, instret = cycles+13, instret+9
	goto L104
L165:
	if st.stop-cycles <= 6 {
		bpc = 165
		goto budgetOut
	}
	// 0a5: srli r5, r1, 31
	r[5] = r[1] >> 31
	// 0a6: srli r6, r2, 31
	r[6] = r[2] >> 31
	// 0a7: addi r3, r5, 0
	r[3] = r[5] + 0x0
	// 0a8: bne r5, r6, 196
	if r[5] != r[6] {
		cycles, instret = cycles+5, instret+4
		goto L364
	}
	cycles, instret = cycles+4, instret+4
	// 0a9: jal r0, 101
	cycles, instret = cycles+2, instret+1
	goto L270
L170:
	if st.stop-cycles <= 6 {
		bpc = 170
		goto budgetOut
	}
	// 0aa: srli r5, r1, 31
	r[5] = r[1] >> 31
	// 0ab: srli r6, r2, 31
	r[6] = r[2] >> 31
	// 0ac: addi r3, r5, 0
	r[3] = r[5] + 0x0
	// 0ad: bne r5, r6, 97
	if r[5] != r[6] {
		cycles, instret = cycles+5, instret+4
		goto L270
	}
	cycles, instret = cycles+4, instret+4
	// 0ae: jal r0, 190
	cycles, instret = cycles+2, instret+1
	goto L364
L175:
	if st.stop-cycles <= 5 {
		bpc = 175
		goto budgetOut
	}
	// 0af: lui r5, 0x8000
	r[5] = 0x80000000
	// 0b0: add r5, r5, r0
	r[5] = r[5] + 0
	// 0b1: xor r1, r1, r5
	r[1] = r[1] ^ r[5]
	// 0b2: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+5, instret+4
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L179:
	if st.stop-cycles <= 21 {
		bpc = 179
		goto budgetOut
	}
	// 0b3: addi r14, r14, -20
	r[14] = r[14] + 0xffffffec
	// 0b4: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 180, cycles+1, instret+1) {
		goto errOut
	}
	// 0b5: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 181, cycles+2, instret+2) {
		goto errOut
	}
	// 0b6: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 182, cycles+3, instret+3) {
		goto errOut
	}
	// 0b7: sw r12, 12(r14)
	a = r[14] + 0xc
	v = r[12]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 183, cycles+4, instret+4) {
		goto errOut
	}
	// 0b8: sw r13, 16(r14)
	a = r[14] + 0x10
	v = r[13]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 184, cycles+5, instret+5) {
		goto errOut
	}
	// 0b9: lui r5, 0x7f
	r[5] = 0x7f0000
	// 0ba: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 0bb: and r6, r1, r5
	r[6] = r[1] & r[5]
	// 0bc: srli r7, r1, 23
	r[7] = r[1] >> 23
	// 0bd: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 0be: srli r8, r1, 31
	r[8] = r[1] >> 31
	// 0bf: addi r5, r0, 255
	r[5] = 0 + 0xff
	// 0c0: bne r7, r5, 4
	if r[7] != r[5] {
		cycles, instret = cycles+15, instret+14
		goto L196
	}
	cycles, instret = cycles+14, instret+14
	// 0c1: bne r6, r0, 9
	if r[6] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L202
	}
	cycles, instret = cycles+1, instret+1
	// 0c2: bne r8, r0, 5
	if r[8] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L199
	}
	cycles, instret = cycles+1, instret+1
	// 0c3: jal r0, 68
	cycles, instret = cycles+2, instret+1
	goto L263
L196:
	if st.stop-cycles <= 7 {
		bpc = 196
		goto budgetOut
	}
	// 0c4: beq r8, r0, 9
	if r[8] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L205
	}
	cycles, instret = cycles+1, instret+1
	// 0c5: or r5, r7, r6
	r[5] = r[7] | r[6]
	// 0c6: beq r5, r0, 65
	if r[5] == 0 {
		cycles, instret = cycles+3, instret+2
		goto L263
	}
	cycles, instret = cycles+2, instret+2
L199:
	// 0c7: lui r1, 0x7fc0
	r[1] = 0x7fc00000
	// 0c8: add r1, r1, r0
	r[1] = r[1] + 0
	// 0c9: jal r0, 62
	cycles, instret = cycles+4, instret+3
	goto L263
L202:
	if st.stop-cycles <= 3 {
		bpc = 202
		goto budgetOut
	}
	// 0ca: addi r2, r1, 0
	r[2] = r[1] + 0x0
	// 0cb: jal r15, -126
	r[15] = 816
	cycles, instret = cycles+3, instret+2
	goto L77
L204:
	if st.stop-cycles <= 2 {
		bpc = 204
		goto budgetOut
	}
	// 0cc: jal r0, 59
	cycles, instret = cycles+2, instret+1
	goto L263
L205:
	if st.stop-cycles <= 6 {
		bpc = 205
		goto budgetOut
	}
	// 0cd: bne r7, r0, 12
	if r[7] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L217
	}
	cycles, instret = cycles+1, instret+1
	// 0ce: beq r6, r0, 9
	if r[6] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L215
	}
	cycles, instret = cycles+1, instret+1
	// 0cf: addi r3, r6, 0
	r[3] = r[6] + 0x0
	// 0d0: addi r1, r6, 0
	r[1] = r[6] + 0x0
	// 0d1: jal r15, -159
	r[15] = 840
	cycles, instret = cycles+4, instret+3
	goto L50
L210:
	if st.stop-cycles <= 6 {
		bpc = 210
		goto budgetOut
	}
	// 0d2: addi r5, r1, -8
	r[5] = r[1] + 0xfffffff8
	// 0d3: addi r7, r0, 1
	r[7] = 0 + 0x1
	// 0d4: sub r7, r7, r5
	r[7] = r[7] - r[5]
	// 0d5: sll r6, r3, r5
	r[6] = r[3] << (r[5] & 31)
	// 0d6: jal r0, 3
	cycles, instret = cycles+6, instret+5
	goto L217
L215:
	if st.stop-cycles <= 3 {
		bpc = 215
		goto budgetOut
	}
	// 0d7: addi r1, r0, 0
	r[1] = 0 + 0x0
	// 0d8: jal r0, 47
	cycles, instret = cycles+3, instret+2
	goto L263
L217:
	if st.stop-cycles <= 15 {
		bpc = 217
		goto budgetOut
	}
	// 0d9: lui r5, 0x80
	r[5] = 0x800000
	// 0da: add r5, r5, r0
	r[5] = r[5] + 0
	// 0db: or r6, r6, r5
	r[6] = r[6] | r[5]
	// 0dc: addi r5, r7, -127
	r[5] = r[7] + 0xffffff81
	// 0dd: srai r9, r5, 1
	r[9] = uint32(int32(r[5]) >> 1)
	// 0de: addi r9, r9, 126
	r[9] = r[9] + 0x7e
	// 0df: andi r5, r5, 1
	r[5] = r[5] & 0x1
	// 0e0: beq r5, r0, 2
	if r[5] == 0 {
		cycles, instret = cycles+9, instret+8
		goto L226
	}
	cycles, instret = cycles+8, instret+8
	// 0e1: slli r6, r6, 1
	r[6] = r[6] << 1
	cycles, instret = cycles+1, instret+1
L226:
	// 0e2: slli r10, r6, 5
	r[10] = r[6] << 5
	// 0e3: addi r11, r0, 0
	r[11] = 0 + 0x0
	// 0e4: addi r12, r0, 0
	r[12] = 0 + 0x0
	// 0e5: addi r8, r0, 0
	r[8] = 0 + 0x0
	// 0e6: addi r4, r0, 0
	r[4] = 0 + 0x0
	// 0e7: addi r13, r0, 32
	r[13] = 0 + 0x20
	cycles, instret = cycles+6, instret+6
L232:
	if st.stop-cycles <= 32 {
		bpc = 232
		goto budgetOut
	}
	// 0e8: srli r5, r10, 30
	r[5] = r[10] >> 30
	// 0e9: slli r10, r10, 2
	r[10] = r[10] << 2
	// 0ea: srli r6, r11, 30
	r[6] = r[11] >> 30
	// 0eb: or r10, r10, r6
	r[10] = r[10] | r[6]
	// 0ec: slli r11, r11, 2
	r[11] = r[11] << 2
	// 0ed: slli r8, r8, 2
	r[8] = r[8] << 2
	// 0ee: srli r6, r4, 30
	r[6] = r[4] >> 30
	// 0ef: or r8, r8, r6
	r[8] = r[8] | r[6]
	// 0f0: slli r4, r4, 2
	r[4] = r[4] << 2
	// 0f1: or r4, r4, r5
	r[4] = r[4] | r[5]
	// 0f2: srli r6, r12, 30
	r[6] = r[12] >> 30
	// 0f3: slli r7, r12, 2
	r[7] = r[12] << 2
	// 0f4: ori r7, r7, 1
	r[7] = r[7] | 0x1
	// 0f5: slli r12, r12, 1
	r[12] = r[12] << 1
	// 0f6: bltu r8, r6, 8
	if r[8] < r[6] {
		cycles, instret = cycles+16, instret+15
		goto L254
	}
	cycles, instret = cycles+15, instret+15
	// 0f7: bne r8, r6, 2
	if r[8] != r[6] {
		cycles, instret = cycles+2, instret+1
		goto L249
	}
	cycles, instret = cycles+1, instret+1
	// 0f8: bltu r4, r7, 6
	if r[4] < r[7] {
		cycles, instret = cycles+2, instret+1
		goto L254
	}
	cycles, instret = cycles+1, instret+1
L249:
	// 0f9: sltu r5, r4, r7
	r[5] = b2u(r[4] < r[7])
	// 0fa: sub r4, r4, r7
	r[4] = r[4] - r[7]
	// 0fb: sub r8, r8, r6
	r[8] = r[8] - r[6]
	// 0fc: sub r8, r8, r5
	r[8] = r[8] - r[5]
	// 0fd: ori r12, r12, 1
	r[12] = r[12] | 0x1
	cycles, instret = cycles+5, instret+5
L254:
	// 0fe: addi r13, r13, -1
	r[13] = r[13] + 0xffffffff
	// 0ff: bne r13, r0, -23
	if r[13] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L232
	}
	cycles, instret = cycles+2, instret+2
	// 100: or r5, r8, r4
	r[5] = r[8] | r[4]
	// 101: beq r5, r0, 2
	if r[5] == 0 {
		cycles, instret = cycles+3, instret+2
		goto L259
	}
	cycles, instret = cycles+2, instret+2
	// 102: ori r12, r12, 1
	r[12] = r[12] | 0x1
	cycles, instret = cycles+1, instret+1
L259:
	// 103: addi r1, r0, 0
	r[1] = 0 + 0x0
	// 104: addi r2, r9, 0
	r[2] = r[9] + 0x0
	// 105: addi r3, r12, 0
	r[3] = r[12] + 0x0
	// 106: jal r15, -158
	r[15] = 1052
	cycles, instret = cycles+5, instret+4
	goto L104
L263:
	if st.stop-cycles <= 13 {
		bpc = 263
		goto budgetOut
	}
	// 107: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 263, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 108: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 264, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 109: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 265, cycles+4, instret+2); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 10a: lw r12, 12(r14)
	a = r[14] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[12] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 266, cycles+6, instret+3); !ok {
			goto errOut
		}
		r[12] = v
	}
	// 10b: lw r13, 16(r14)
	a = r[14] + 0x10
	if a&3 == 0 && a <= DataBytes-4 {
		r[13] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 267, cycles+8, instret+4); !ok {
			goto errOut
		}
		r[13] = v
	}
	// 10c: addi r14, r14, 20
	r[14] = r[14] + 0x14
	// 10d: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+13, instret+7
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L270:
	if st.stop-cycles <= 27 {
		bpc = 270
		goto budgetOut
	}
	// 10e: addi r14, r14, -16
	r[14] = r[14] + 0xfffffff0
	// 10f: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 271, cycles+1, instret+1) {
		goto errOut
	}
	// 110: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 272, cycles+2, instret+2) {
		goto errOut
	}
	// 111: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 273, cycles+3, instret+3) {
		goto errOut
	}
	// 112: sw r12, 12(r14)
	a = r[14] + 0xc
	v = r[12]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 274, cycles+4, instret+4) {
		goto errOut
	}
	// 113: lui r5, 0x7f
	r[5] = 0x7f0000
	// 114: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 115: and r10, r1, r5
	r[10] = r[1] & r[5]
	// 116: and r11, r2, r5
	r[11] = r[2] & r[5]
	// 117: slli r10, r10, 6
	r[10] = r[10] << 6
	// 118: slli r11, r11, 6
	r[11] = r[11] << 6
	// 119: srli r7, r1, 23
	r[7] = r[1] >> 23
	// 11a: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 11b: srli r8, r2, 23
	r[8] = r[2] >> 23
	// 11c: andi r8, r8, 255
	r[8] = r[8] & 0xff
	// 11d: sub r9, r7, r8
	r[9] = r[7] - r[8]
	// 11e: beq r9, r0, 51
	if r[9] == 0 {
		cycles, instret = cycles+18, instret+17
		goto L337
	}
	cycles, instret = cycles+17, instret+17
	// 11f: blt r0, r9, 21
	if int32(0) < int32(r[9]) {
		cycles, instret = cycles+2, instret+1
		goto L308
	}
	cycles, instret = cycles+1, instret+1
	// 120: addi r5, r0, 255
	r[5] = 0 + 0xff
	// 121: bne r8, r5, 7
	if r[8] != r[5] {
		cycles, instret = cycles+3, instret+2
		goto L296
	}
	cycles, instret = cycles+2, instret+2
	// 122: bne r11, r0, 67
	if r[11] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L357
	}
	cycles, instret = cycles+1, instret+1
	// 123: slli r1, r3, 31
	r[1] = r[3] << 31
	// 124: lui r5, 0x7f80
	r[5] = 0x7f800000
	// 125: add r5, r5, r0
	r[5] = r[5] + 0
	// 126: or r1, r1, r5
	r[1] = r[1] | r[5]
	// 127: jal r0, 63
	cycles, instret = cycles+6, instret+5
	goto L358
L296:
	if st.stop-cycles <= 4 {
		bpc = 296
		goto budgetOut
	}
	// 128: bne r7, r0, 3
	if r[7] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L299
	}
	cycles, instret = cycles+1, instret+1
	// 129: addi r9, r9, 1
	r[9] = r[9] + 0x1
	// 12a: jal r0, 4
	cycles, instret = cycles+3, instret+2
	goto L302
L299:
	if st.stop-cycles <= 3 {
		bpc = 299
		goto budgetOut
	}
	// 12b: lui r5, 0x2000
	r[5] = 0x20000000
	// 12c: add r5, r5, r0
	r[5] = r[5] + 0
	// 12d: or r10, r10, r5
	r[10] = r[10] | r[5]
	cycles, instret = cycles+3, instret+3
L302:
	if st.stop-cycles <= 5 {
		bpc = 302
		goto budgetOut
	}
	// 12e: addi r1, r10, 0
	r[1] = r[10] + 0x0
	// 12f: sub r2, r0, r9
	r[2] = 0 - r[9]
	// 130: addi r12, r8, 0
	r[12] = r[8] + 0x0
	// 131: jal r15, -269
	r[15] = 1224
	cycles, instret = cycles+5, instret+4
	goto L36
L306:
	if st.stop-cycles <= 3 {
		bpc = 306
		goto budgetOut
	}
	// 132: addi r10, r1, 0
	r[10] = r[1] + 0x0
	// 133: jal r0, 16
	cycles, instret = cycles+3, instret+2
	goto L323
L308:
	if st.stop-cycles <= 5 {
		bpc = 308
		goto budgetOut
	}
	// 134: addi r5, r0, 255
	r[5] = 0 + 0xff
	// 135: bne r7, r5, 3
	if r[7] != r[5] {
		cycles, instret = cycles+3, instret+2
		goto L312
	}
	cycles, instret = cycles+2, instret+2
	// 136: bne r10, r0, 47
	if r[10] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L357
	}
	cycles, instret = cycles+1, instret+1
	// 137: jal r0, 47
	cycles, instret = cycles+2, instret+1
	goto L358
L312:
	if st.stop-cycles <= 4 {
		bpc = 312
		goto budgetOut
	}
	// 138: bne r8, r0, 3
	if r[8] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L315
	}
	cycles, instret = cycles+1, instret+1
	// 139: addi r9, r9, -1
	r[9] = r[9] + 0xffffffff
	// 13a: jal r0, 4
	cycles, instret = cycles+3, instret+2
	goto L318
L315:
	if st.stop-cycles <= 3 {
		bpc = 315
		goto budgetOut
	}
	// 13b: lui r5, 0x2000
	r[5] = 0x20000000
	// 13c: add r5, r5, r0
	r[5] = r[5] + 0
	// 13d: or r11, r11, r5
	r[11] = r[11] | r[5]
	cycles, instret = cycles+3, instret+3
L318:
	if st.stop-cycles <= 5 {
		bpc = 318
		goto budgetOut
	}
	// 13e: addi r1, r11, 0
	r[1] = r[11] + 0x0
	// 13f: addi r2, r9, 0
	r[2] = r[9] + 0x0
	// 140: addi r12, r7, 0
	r[12] = r[7] + 0x0
	// 141: jal r15, -285
	r[15] = 1288
	cycles, instret = cycles+5, instret+4
	goto L36
L322:
	if st.stop-cycles <= 1 {
		bpc = 322
		goto budgetOut
	}
	// 142: addi r11, r1, 0
	r[11] = r[1] + 0x0
	cycles, instret = cycles+1, instret+1
L323:
	if st.stop-cycles <= 14 {
		bpc = 323
		goto budgetOut
	}
	// 143: lui r5, 0x2000
	r[5] = 0x20000000
	// 144: add r5, r5, r0
	r[5] = r[5] + 0
	// 145: or r10, r10, r5
	r[10] = r[10] | r[5]
	// 146: add r6, r10, r11
	r[6] = r[10] + r[11]
	// 147: slli r5, r6, 1
	r[5] = r[6] << 1
	// 148: addi r12, r12, -1
	r[12] = r[12] + 0xffffffff
	// 149: bge r5, r0, 3
	if int32(r[5]) >= int32(0) {
		cycles, instret = cycles+8, instret+7
		goto L332
	}
	cycles, instret = cycles+7, instret+7
	// 14a: addi r5, r6, 0
	r[5] = r[6] + 0x0
	// 14b: addi r12, r12, 1
	r[12] = r[12] + 0x1
	cycles, instret = cycles+2, instret+2
L332:
	// 14c: addi r1, r3, 0
	r[1] = r[3] + 0x0
	// 14d: addi r2, r12, 0
	r[2] = r[12] + 0x0
	// 14e: addi r3, r5, 0
	r[3] = r[5] + 0x0
	// 14f: jal r15, -231
	r[15] = 1344
	cycles, instret = cycles+5, instret+4
	goto L104
L336:
	if st.stop-cycles <= 2 {
		bpc = 336
		goto budgetOut
	}
	// 150: jal r0, 22
	cycles, instret = cycles+2, instret+1
	goto L358
L337:
	if st.stop-cycles <= 6 {
		bpc = 337
		goto budgetOut
	}
	// 151: addi r5, r0, 255
	r[5] = 0 + 0xff
	// 152: bne r7, r5, 4
	if r[7] != r[5] {
		cycles, instret = cycles+3, instret+2
		goto L342
	}
	cycles, instret = cycles+2, instret+2
	// 153: or r6, r10, r11
	r[6] = r[10] | r[11]
	// 154: bne r6, r0, 17
	if r[6] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L357
	}
	cycles, instret = cycles+2, instret+2
	// 155: jal r0, 17
	cycles, instret = cycles+2, instret+1
	goto L358
L342:
	if st.stop-cycles <= 7 {
		bpc = 342
		goto budgetOut
	}
	// 156: bne r7, r0, 6
	if r[7] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L348
	}
	cycles, instret = cycles+1, instret+1
	// 157: add r5, r10, r11
	r[5] = r[10] + r[11]
	// 158: srli r5, r5, 6
	r[5] = r[5] >> 6
	// 159: slli r1, r3, 31
	r[1] = r[3] << 31
	// 15a: add r1, r1, r5
	r[1] = r[1] + r[5]
	// 15b: jal r0, 11
	cycles, instret = cycles+6, instret+5
	goto L358
L348:
	if st.stop-cycles <= 9 {
		bpc = 348
		goto budgetOut
	}
	// 15c: add r5, r10, r11
	r[5] = r[10] + r[11]
	// 15d: lui r6, 0x4000
	r[6] = 0x40000000
	// 15e: add r6, r6, r0
	r[6] = r[6] + 0
	// 15f: add r5, r5, r6
	r[5] = r[5] + r[6]
	// 160: addi r1, r3, 0
	r[1] = r[3] + 0x0
	// 161: addi r2, r7, 0
	r[2] = r[7] + 0x0
	// 162: addi r3, r5, 0
	r[3] = r[5] + 0x0
	// 163: jal r15, -251
	r[15] = 1424
	cycles, instret = cycles+9, instret+8
	goto L104
L356:
	if st.stop-cycles <= 2 {
		bpc = 356
		goto budgetOut
	}
	// 164: jal r0, 2
	cycles, instret = cycles+2, instret+1
	goto L358
L357:
	if st.stop-cycles <= 2 {
		bpc = 357
		goto budgetOut
	}
	// 165: jal r15, -280
	r[15] = 1432
	cycles, instret = cycles+2, instret+1
	goto L77
L358:
	if st.stop-cycles <= 11 {
		bpc = 358
		goto budgetOut
	}
	// 166: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 358, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 167: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 359, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 168: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 360, cycles+4, instret+2); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 169: lw r12, 12(r14)
	a = r[14] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[12] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 361, cycles+6, instret+3); !ok {
			goto errOut
		}
		r[12] = v
	}
	// 16a: addi r14, r14, 16
	r[14] = r[14] + 0x10
	// 16b: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+11, instret+6
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L364:
	if st.stop-cycles <= 28 {
		bpc = 364
		goto budgetOut
	}
	// 16c: addi r14, r14, -16
	r[14] = r[14] + 0xfffffff0
	// 16d: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 365, cycles+1, instret+1) {
		goto errOut
	}
	// 16e: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 366, cycles+2, instret+2) {
		goto errOut
	}
	// 16f: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 367, cycles+3, instret+3) {
		goto errOut
	}
	// 170: sw r12, 12(r14)
	a = r[14] + 0xc
	v = r[12]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 368, cycles+4, instret+4) {
		goto errOut
	}
	// 171: lui r5, 0x7f
	r[5] = 0x7f0000
	// 172: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 173: and r10, r1, r5
	r[10] = r[1] & r[5]
	// 174: and r11, r2, r5
	r[11] = r[2] & r[5]
	// 175: slli r10, r10, 7
	r[10] = r[10] << 7
	// 176: slli r11, r11, 7
	r[11] = r[11] << 7
	// 177: srli r7, r1, 23
	r[7] = r[1] >> 23
	// 178: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 179: srli r8, r2, 23
	r[8] = r[2] >> 23
	// 17a: andi r8, r8, 255
	r[8] = r[8] & 0xff
	// 17b: sub r9, r7, r8
	r[9] = r[7] - r[8]
	// 17c: beq r9, r0, 48
	if r[9] == 0 {
		cycles, instret = cycles+18, instret+17
		goto L428
	}
	cycles, instret = cycles+17, instret+17
	// 17d: blt r0, r9, 27
	if int32(0) < int32(r[9]) {
		cycles, instret = cycles+2, instret+1
		goto L408
	}
	cycles, instret = cycles+1, instret+1
	// 17e: addi r5, r0, 255
	r[5] = 0 + 0xff
	// 17f: bne r8, r5, 8
	if r[8] != r[5] {
		cycles, instret = cycles+3, instret+2
		goto L391
	}
	cycles, instret = cycles+2, instret+2
	// 180: bne r11, r0, 68
	if r[11] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L452
	}
	cycles, instret = cycles+1, instret+1
	// 181: xori r3, r3, 1
	r[3] = r[3] ^ 0x1
	// 182: slli r1, r3, 31
	r[1] = r[3] << 31
	// 183: lui r5, 0x7f80
	r[5] = 0x7f800000
	// 184: add r5, r5, r0
	r[5] = r[5] + 0
	// 185: or r1, r1, r5
	r[1] = r[1] | r[5]
	// 186: jal r0, 63
	cycles, instret = cycles+7, instret+6
	goto L453
L391:
	if st.stop-cycles <= 4 {
		bpc = 391
		goto budgetOut
	}
	// 187: bne r7, r0, 3
	if r[7] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L394
	}
	cycles, instret = cycles+1, instret+1
	// 188: addi r9, r9, 1
	r[9] = r[9] + 0x1
	// 189: jal r0, 4
	cycles, instret = cycles+3, instret+2
	goto L397
L394:
	if st.stop-cycles <= 3 {
		bpc = 394
		goto budgetOut
	}
	// 18a: lui r5, 0x4000
	r[5] = 0x40000000
	// 18b: add r5, r5, r0
	r[5] = r[5] + 0
	// 18c: or r10, r10, r5
	r[10] = r[10] | r[5]
	cycles, instret = cycles+3, instret+3
L397:
	if st.stop-cycles <= 5 {
		bpc = 397
		goto budgetOut
	}
	// 18d: addi r1, r10, 0
	r[1] = r[10] + 0x0
	// 18e: sub r2, r0, r9
	r[2] = 0 - r[9]
	// 18f: addi r12, r8, 0
	r[12] = r[8] + 0x0
	// 190: jal r15, -364
	r[15] = 1604
	cycles, instret = cycles+5, instret+4
	goto L36
L401:
	if st.stop-cycles <= 8 {
		bpc = 401
		goto budgetOut
	}
	// 191: addi r10, r1, 0
	r[10] = r[1] + 0x0
	// 192: lui r5, 0x4000
	r[5] = 0x40000000
	// 193: add r5, r5, r0
	r[5] = r[5] + 0
	// 194: or r11, r11, r5
	r[11] = r[11] | r[5]
	// 195: sub r5, r11, r10
	r[5] = r[11] - r[10]
	// 196: xori r3, r3, 1
	r[3] = r[3] ^ 0x1
	// 197: jal r0, 40
	cycles, instret = cycles+8, instret+7
	goto L447
L408:
	if st.stop-cycles <= 5 {
		bpc = 408
		goto budgetOut
	}
	// 198: addi r5, r0, 255
	r[5] = 0 + 0xff
	// 199: bne r7, r5, 3
	if r[7] != r[5] {
		cycles, instret = cycles+3, instret+2
		goto L412
	}
	cycles, instret = cycles+2, instret+2
	// 19a: bne r10, r0, 42
	if r[10] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L452
	}
	cycles, instret = cycles+1, instret+1
	// 19b: jal r0, 42
	cycles, instret = cycles+2, instret+1
	goto L453
L412:
	if st.stop-cycles <= 4 {
		bpc = 412
		goto budgetOut
	}
	// 19c: bne r8, r0, 3
	if r[8] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L415
	}
	cycles, instret = cycles+1, instret+1
	// 19d: addi r9, r9, -1
	r[9] = r[9] + 0xffffffff
	// 19e: jal r0, 4
	cycles, instret = cycles+3, instret+2
	goto L418
L415:
	if st.stop-cycles <= 3 {
		bpc = 415
		goto budgetOut
	}
	// 19f: lui r5, 0x4000
	r[5] = 0x40000000
	// 1a0: add r5, r5, r0
	r[5] = r[5] + 0
	// 1a1: or r11, r11, r5
	r[11] = r[11] | r[5]
	cycles, instret = cycles+3, instret+3
L418:
	if st.stop-cycles <= 5 {
		bpc = 418
		goto budgetOut
	}
	// 1a2: addi r1, r11, 0
	r[1] = r[11] + 0x0
	// 1a3: addi r2, r9, 0
	r[2] = r[9] + 0x0
	// 1a4: addi r12, r7, 0
	r[12] = r[7] + 0x0
	// 1a5: jal r15, -385
	r[15] = 1688
	cycles, instret = cycles+5, instret+4
	goto L36
L422:
	if st.stop-cycles <= 7 {
		bpc = 422
		goto budgetOut
	}
	// 1a6: addi r11, r1, 0
	r[11] = r[1] + 0x0
	// 1a7: lui r5, 0x4000
	r[5] = 0x40000000
	// 1a8: add r5, r5, r0
	r[5] = r[5] + 0
	// 1a9: or r10, r10, r5
	r[10] = r[10] | r[5]
	// 1aa: sub r5, r10, r11
	r[5] = r[10] - r[11]
	// 1ab: jal r0, 20
	cycles, instret = cycles+7, instret+6
	goto L447
L428:
	if st.stop-cycles <= 8 {
		bpc = 428
		goto budgetOut
	}
	// 1ac: addi r5, r0, 255
	r[5] = 0 + 0xff
	// 1ad: bne r7, r5, 6
	if r[7] != r[5] {
		cycles, instret = cycles+3, instret+2
		goto L435
	}
	cycles, instret = cycles+2, instret+2
	// 1ae: or r6, r10, r11
	r[6] = r[10] | r[11]
	// 1af: bne r6, r0, 21
	if r[6] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L452
	}
	cycles, instret = cycles+2, instret+2
	// 1b0: lui r1, 0x7fc0
	r[1] = 0x7fc00000
	// 1b1: add r1, r1, r0
	r[1] = r[1] + 0
	// 1b2: jal r0, 19
	cycles, instret = cycles+4, instret+3
	goto L453
L435:
	if st.stop-cycles <= 7 {
		bpc = 435
		goto budgetOut
	}
	// 1b3: bne r7, r0, 2
	if r[7] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L437
	}
	cycles, instret = cycles+1, instret+1
	// 1b4: addi r7, r0, 1
	r[7] = 0 + 0x1
	cycles, instret = cycles+1, instret+1
L437:
	// 1b5: bltu r11, r10, 4
	if r[11] < r[10] {
		cycles, instret = cycles+2, instret+1
		goto L441
	}
	cycles, instret = cycles+1, instret+1
	// 1b6: bltu r10, r11, 6
	if r[10] < r[11] {
		cycles, instret = cycles+2, instret+1
		goto L444
	}
	cycles, instret = cycles+1, instret+1
	// 1b7: addi r1, r0, 0
	r[1] = 0 + 0x0
	// 1b8: jal r0, 13
	cycles, instret = cycles+3, instret+2
	goto L453
L441:
	if st.stop-cycles <= 4 {
		bpc = 441
		goto budgetOut
	}
	// 1b9: sub r5, r10, r11
	r[5] = r[10] - r[11]
	// 1ba: addi r12, r7, 0
	r[12] = r[7] + 0x0
	// 1bb: jal r0, 4
	cycles, instret = cycles+4, instret+3
	goto L447
L444:
	if st.stop-cycles <= 3 {
		bpc = 444
		goto budgetOut
	}
	// 1bc: sub r5, r11, r10
	r[5] = r[11] - r[10]
	// 1bd: addi r12, r7, 0
	r[12] = r[7] + 0x0
	// 1be: xori r3, r3, 1
	r[3] = r[3] ^ 0x1
	cycles, instret = cycles+3, instret+3
L447:
	if st.stop-cycles <= 5 {
		bpc = 447
		goto budgetOut
	}
	// 1bf: addi r1, r3, 0
	r[1] = r[3] + 0x0
	// 1c0: addi r2, r12, -1
	r[2] = r[12] + 0xffffffff
	// 1c1: addi r3, r5, 0
	r[3] = r[5] + 0x0
	// 1c2: jal r15, -302
	r[15] = 1804
	cycles, instret = cycles+5, instret+4
	goto L148
L451:
	if st.stop-cycles <= 2 {
		bpc = 451
		goto budgetOut
	}
	// 1c3: jal r0, 2
	cycles, instret = cycles+2, instret+1
	goto L453
L452:
	if st.stop-cycles <= 2 {
		bpc = 452
		goto budgetOut
	}
	// 1c4: jal r15, -375
	r[15] = 1812
	cycles, instret = cycles+2, instret+1
	goto L77
L453:
	if st.stop-cycles <= 11 {
		bpc = 453
		goto budgetOut
	}
	// 1c5: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 453, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 1c6: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 454, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 1c7: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 455, cycles+4, instret+2); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 1c8: lw r12, 12(r14)
	a = r[14] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[12] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 456, cycles+6, instret+3); !ok {
			goto errOut
		}
		r[12] = v
	}
	// 1c9: addi r14, r14, 16
	r[14] = r[14] + 0x10
	// 1ca: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+11, instret+6
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L459:
	if st.stop-cycles <= 23 {
		bpc = 459
		goto budgetOut
	}
	// 1cb: addi r14, r14, -16
	r[14] = r[14] + 0xfffffff0
	// 1cc: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 460, cycles+1, instret+1) {
		goto errOut
	}
	// 1cd: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 461, cycles+2, instret+2) {
		goto errOut
	}
	// 1ce: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 462, cycles+3, instret+3) {
		goto errOut
	}
	// 1cf: sw r12, 12(r14)
	a = r[14] + 0xc
	v = r[12]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 463, cycles+4, instret+4) {
		goto errOut
	}
	// 1d0: lui r5, 0x7f
	r[5] = 0x7f0000
	// 1d1: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 1d2: and r10, r1, r5
	r[10] = r[1] & r[5]
	// 1d3: and r11, r2, r5
	r[11] = r[2] & r[5]
	// 1d4: srli r7, r1, 23
	r[7] = r[1] >> 23
	// 1d5: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 1d6: srli r8, r2, 23
	r[8] = r[2] >> 23
	// 1d7: andi r8, r8, 255
	r[8] = r[8] & 0xff
	// 1d8: srli r5, r1, 31
	r[5] = r[1] >> 31
	// 1d9: srli r6, r2, 31
	r[6] = r[2] >> 31
	// 1da: xor r3, r5, r6
	r[3] = r[5] ^ r[6]
	// 1db: addi r9, r0, 255
	r[9] = 0 + 0xff
	// 1dc: bne r7, r9, 10
	if r[7] != r[9] {
		cycles, instret = cycles+19, instret+18
		goto L486
	}
	cycles, instret = cycles+18, instret+18
	// 1dd: bne r10, r0, 62
	if r[10] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L539
	}
	cycles, instret = cycles+1, instret+1
	// 1de: bne r8, r9, 3
	if r[8] != r[9] {
		cycles, instret = cycles+2, instret+1
		goto L481
	}
	cycles, instret = cycles+1, instret+1
	// 1df: bne r11, r0, 60
	if r[11] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L539
	}
	cycles, instret = cycles+1, instret+1
	// 1e0: jal r0, 13
	cycles, instret = cycles+2, instret+1
	goto L493
L481:
	if st.stop-cycles <= 6 {
		bpc = 481
		goto budgetOut
	}
	// 1e1: or r5, r8, r11
	r[5] = r[8] | r[11]
	// 1e2: bne r5, r0, 11
	if r[5] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L493
	}
	cycles, instret = cycles+2, instret+2
	// 1e3: lui r1, 0x7fc0
	r[1] = 0x7fc00000
	// 1e4: add r1, r1, r0
	r[1] = r[1] + 0
	// 1e5: jal r0, 55
	cycles, instret = cycles+4, instret+3
	goto L540
L486:
	if st.stop-cycles <= 8 {
		bpc = 486
		goto budgetOut
	}
	// 1e6: bne r8, r9, 12
	if r[8] != r[9] {
		cycles, instret = cycles+2, instret+1
		goto L498
	}
	cycles, instret = cycles+1, instret+1
	// 1e7: bne r11, r0, 52
	if r[11] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L539
	}
	cycles, instret = cycles+1, instret+1
	// 1e8: or r5, r7, r10
	r[5] = r[7] | r[10]
	// 1e9: bne r5, r0, 4
	if r[5] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L493
	}
	cycles, instret = cycles+2, instret+2
	// 1ea: lui r1, 0x7fc0
	r[1] = 0x7fc00000
	// 1eb: add r1, r1, r0
	r[1] = r[1] + 0
	// 1ec: jal r0, 48
	cycles, instret = cycles+4, instret+3
	goto L540
L493:
	if st.stop-cycles <= 6 {
		bpc = 493
		goto budgetOut
	}
	// 1ed: slli r1, r3, 31
	r[1] = r[3] << 31
	// 1ee: lui r5, 0x7f80
	r[5] = 0x7f800000
	// 1ef: add r5, r5, r0
	r[5] = r[5] + 0
	// 1f0: or r1, r1, r5
	r[1] = r[1] | r[5]
	// 1f1: jal r0, 43
	cycles, instret = cycles+6, instret+5
	goto L540
L498:
	if st.stop-cycles <= 31 {
		bpc = 498
		goto budgetOut
	}
	// 1f2: bne r7, r0, 10
	if r[7] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L508
	}
	cycles, instret = cycles+1, instret+1
	// 1f3: bne r10, r0, 3
	if r[10] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L502
	}
	cycles, instret = cycles+1, instret+1
	// 1f4: slli r1, r3, 31
	r[1] = r[3] << 31
	// 1f5: jal r0, 39
	cycles, instret = cycles+3, instret+2
	goto L540
L502:
	if st.stop-cycles <= 3 {
		bpc = 502
		goto budgetOut
	}
	// 1f6: addi r1, r10, 0
	r[1] = r[10] + 0x0
	// 1f7: jal r15, -453
	r[15] = 2016
	cycles, instret = cycles+3, instret+2
	goto L50
L504:
	if st.stop-cycles <= 33 {
		bpc = 504
		goto budgetOut
	}
	// 1f8: addi r5, r1, -8
	r[5] = r[1] + 0xfffffff8
	// 1f9: addi r7, r0, 1
	r[7] = 0 + 0x1
	// 1fa: sub r7, r7, r5
	r[7] = r[7] - r[5]
	// 1fb: sll r10, r10, r5
	r[10] = r[10] << (r[5] & 31)
	cycles, instret = cycles+4, instret+4
L508:
	// 1fc: bne r8, r0, 10
	if r[8] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L518
	}
	cycles, instret = cycles+1, instret+1
	// 1fd: bne r11, r0, 3
	if r[11] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L512
	}
	cycles, instret = cycles+1, instret+1
	// 1fe: slli r1, r3, 31
	r[1] = r[3] << 31
	// 1ff: jal r0, 29
	cycles, instret = cycles+3, instret+2
	goto L540
L512:
	if st.stop-cycles <= 3 {
		bpc = 512
		goto budgetOut
	}
	// 200: addi r1, r11, 0
	r[1] = r[11] + 0x0
	// 201: jal r15, -463
	r[15] = 2056
	cycles, instret = cycles+3, instret+2
	goto L50
L514:
	if st.stop-cycles <= 31 {
		bpc = 514
		goto budgetOut
	}
	// 202: addi r5, r1, -8
	r[5] = r[1] + 0xfffffff8
	// 203: addi r8, r0, 1
	r[8] = 0 + 0x1
	// 204: sub r8, r8, r5
	r[8] = r[8] - r[5]
	// 205: sll r11, r11, r5
	r[11] = r[11] << (r[5] & 31)
	cycles, instret = cycles+4, instret+4
L518:
	// 206: add r12, r7, r8
	r[12] = r[7] + r[8]
	// 207: addi r12, r12, -127
	r[12] = r[12] + 0xffffff81
	// 208: lui r5, 0x80
	r[5] = 0x800000
	// 209: add r5, r5, r0
	r[5] = r[5] + 0
	// 20a: or r10, r10, r5
	r[10] = r[10] | r[5]
	// 20b: or r11, r11, r5
	r[11] = r[11] | r[5]
	// 20c: slli r10, r10, 7
	r[10] = r[10] << 7
	// 20d: slli r11, r11, 8
	r[11] = r[11] << 8
	// 20e: mulhu r5, r10, r11
	r[5] = uint32(uint64(r[10]) * uint64(r[11]) >> 32)
	// 20f: mul r6, r10, r11
	r[6] = r[10] * r[11]
	// 210: beq r6, r0, 2
	if r[6] == 0 {
		cycles, instret = cycles+18, instret+11
		goto L530
	}
	cycles, instret = cycles+17, instret+11
	// 211: ori r5, r5, 1
	r[5] = r[5] | 0x1
	cycles, instret = cycles+1, instret+1
L530:
	// 212: slli r6, r5, 1
	r[6] = r[5] << 1
	// 213: blt r6, r0, 3
	if int32(r[6]) < int32(0) {
		cycles, instret = cycles+3, instret+2
		goto L534
	}
	cycles, instret = cycles+2, instret+2
	// 214: addi r5, r6, 0
	r[5] = r[6] + 0x0
	// 215: addi r12, r12, -1
	r[12] = r[12] + 0xffffffff
	cycles, instret = cycles+2, instret+2
L534:
	// 216: addi r1, r3, 0
	r[1] = r[3] + 0x0
	// 217: addi r2, r12, 0
	r[2] = r[12] + 0x0
	// 218: addi r3, r5, 0
	r[3] = r[5] + 0x0
	// 219: jal r15, -433
	r[15] = 2152
	cycles, instret = cycles+5, instret+4
	goto L104
L538:
	if st.stop-cycles <= 2 {
		bpc = 538
		goto budgetOut
	}
	// 21a: jal r0, 2
	cycles, instret = cycles+2, instret+1
	goto L540
L539:
	if st.stop-cycles <= 2 {
		bpc = 539
		goto budgetOut
	}
	// 21b: jal r15, -462
	r[15] = 2160
	cycles, instret = cycles+2, instret+1
	goto L77
L540:
	if st.stop-cycles <= 11 {
		bpc = 540
		goto budgetOut
	}
	// 21c: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 540, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 21d: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 541, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 21e: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 542, cycles+4, instret+2); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 21f: lw r12, 12(r14)
	a = r[14] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[12] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 543, cycles+6, instret+3); !ok {
			goto errOut
		}
		r[12] = v
	}
	// 220: addi r14, r14, 16
	r[14] = r[14] + 0x10
	// 221: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+11, instret+6
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L546:
	if st.stop-cycles <= 25 {
		bpc = 546
		goto budgetOut
	}
	// 222: addi r14, r14, -16
	r[14] = r[14] + 0xfffffff0
	// 223: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 547, cycles+1, instret+1) {
		goto errOut
	}
	// 224: sw r10, 4(r14)
	a = r[14] + 0x4
	v = r[10]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 548, cycles+2, instret+2) {
		goto errOut
	}
	// 225: sw r11, 8(r14)
	a = r[14] + 0x8
	v = r[11]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 549, cycles+3, instret+3) {
		goto errOut
	}
	// 226: sw r12, 12(r14)
	a = r[14] + 0xc
	v = r[12]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 550, cycles+4, instret+4) {
		goto errOut
	}
	// 227: lui r5, 0x7f
	r[5] = 0x7f0000
	// 228: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 229: and r10, r1, r5
	r[10] = r[1] & r[5]
	// 22a: and r11, r2, r5
	r[11] = r[2] & r[5]
	// 22b: srli r7, r1, 23
	r[7] = r[1] >> 23
	// 22c: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 22d: srli r8, r2, 23
	r[8] = r[2] >> 23
	// 22e: andi r8, r8, 255
	r[8] = r[8] & 0xff
	// 22f: srli r5, r1, 31
	r[5] = r[1] >> 31
	// 230: srli r6, r2, 31
	r[6] = r[2] >> 31
	// 231: xor r3, r5, r6
	r[3] = r[5] ^ r[6]
	// 232: addi r9, r0, 255
	r[9] = 0 + 0xff
	// 233: bne r7, r9, 7
	if r[7] != r[9] {
		cycles, instret = cycles+19, instret+18
		goto L570
	}
	cycles, instret = cycles+18, instret+18
	// 234: bne r10, r0, 71
	if r[10] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L635
	}
	cycles, instret = cycles+1, instret+1
	// 235: bne r8, r9, 65
	if r[8] != r[9] {
		cycles, instret = cycles+2, instret+1
		goto L630
	}
	cycles, instret = cycles+1, instret+1
	// 236: bne r11, r0, 69
	if r[11] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L635
	}
	cycles, instret = cycles+1, instret+1
	// 237: lui r1, 0x7fc0
	r[1] = 0x7fc00000
	// 238: add r1, r1, r0
	r[1] = r[1] + 0
	// 239: jal r0, 67
	cycles, instret = cycles+4, instret+3
	goto L636
L570:
	if st.stop-cycles <= 5 {
		bpc = 570
		goto budgetOut
	}
	// 23a: bne r8, r9, 4
	if r[8] != r[9] {
		cycles, instret = cycles+2, instret+1
		goto L574
	}
	cycles, instret = cycles+1, instret+1
	// 23b: bne r11, r0, 64
	if r[11] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L635
	}
	cycles, instret = cycles+1, instret+1
	// 23c: slli r1, r3, 31
	r[1] = r[3] << 31
	// 23d: jal r0, 63
	cycles, instret = cycles+3, instret+2
	goto L636
L574:
	if st.stop-cycles <= 17 {
		bpc = 574
		goto budgetOut
	}
	// 23e: bne r8, r0, 13
	if r[8] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L587
	}
	cycles, instret = cycles+1, instret+1
	// 23f: bne r11, r0, 6
	if r[11] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L581
	}
	cycles, instret = cycles+1, instret+1
	// 240: or r5, r7, r10
	r[5] = r[7] | r[10]
	// 241: bne r5, r0, 53
	if r[5] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L630
	}
	cycles, instret = cycles+2, instret+2
	// 242: lui r1, 0x7fc0
	r[1] = 0x7fc00000
	// 243: add r1, r1, r0
	r[1] = r[1] + 0
	// 244: jal r0, 56
	cycles, instret = cycles+4, instret+3
	goto L636
L581:
	if st.stop-cycles <= 3 {
		bpc = 581
		goto budgetOut
	}
	// 245: addi r1, r11, 0
	r[1] = r[11] + 0x0
	// 246: jal r15, -532
	r[15] = 2332
	cycles, instret = cycles+3, instret+2
	goto L50
L583:
	if st.stop-cycles <= 19 {
		bpc = 583
		goto budgetOut
	}
	// 247: addi r5, r1, -8
	r[5] = r[1] + 0xfffffff8
	// 248: addi r8, r0, 1
	r[8] = 0 + 0x1
	// 249: sub r8, r8, r5
	r[8] = r[8] - r[5]
	// 24a: sll r11, r11, r5
	r[11] = r[11] << (r[5] & 31)
	cycles, instret = cycles+4, instret+4
L587:
	// 24b: bne r7, r0, 10
	if r[7] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L597
	}
	cycles, instret = cycles+1, instret+1
	// 24c: bne r10, r0, 3
	if r[10] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L591
	}
	cycles, instret = cycles+1, instret+1
	// 24d: slli r1, r3, 31
	r[1] = r[3] << 31
	// 24e: jal r0, 46
	cycles, instret = cycles+3, instret+2
	goto L636
L591:
	if st.stop-cycles <= 3 {
		bpc = 591
		goto budgetOut
	}
	// 24f: addi r1, r10, 0
	r[1] = r[10] + 0x0
	// 250: jal r15, -542
	r[15] = 2372
	cycles, instret = cycles+3, instret+2
	goto L50
L593:
	if st.stop-cycles <= 17 {
		bpc = 593
		goto budgetOut
	}
	// 251: addi r5, r1, -8
	r[5] = r[1] + 0xfffffff8
	// 252: addi r7, r0, 1
	r[7] = 0 + 0x1
	// 253: sub r7, r7, r5
	r[7] = r[7] - r[5]
	// 254: sll r10, r10, r5
	r[10] = r[10] << (r[5] & 31)
	cycles, instret = cycles+4, instret+4
L597:
	// 255: sub r12, r7, r8
	r[12] = r[7] - r[8]
	// 256: addi r12, r12, 125
	r[12] = r[12] + 0x7d
	// 257: lui r5, 0x80
	r[5] = 0x800000
	// 258: add r5, r5, r0
	r[5] = r[5] + 0
	// 259: or r10, r10, r5
	r[10] = r[10] | r[5]
	// 25a: or r11, r11, r5
	r[11] = r[11] | r[5]
	// 25b: slli r10, r10, 7
	r[10] = r[10] << 7
	// 25c: slli r11, r11, 8
	r[11] = r[11] << 8
	// 25d: add r5, r10, r10
	r[5] = r[10] + r[10]
	// 25e: bltu r11, r5, 3
	if r[11] < r[5] {
		cycles, instret = cycles+11, instret+10
		goto L609
	}
	cycles, instret = cycles+10, instret+10
	// 25f: beq r11, r5, 2
	if r[11] == r[5] {
		cycles, instret = cycles+2, instret+1
		goto L609
	}
	cycles, instret = cycles+1, instret+1
	// 260: jal r0, 3
	cycles, instret = cycles+2, instret+1
	goto L611
L609:
	if st.stop-cycles <= 2 {
		bpc = 609
		goto budgetOut
	}
	// 261: srli r10, r10, 1
	r[10] = r[10] >> 1
	// 262: addi r12, r12, 1
	r[12] = r[12] + 0x1
	cycles, instret = cycles+2, instret+2
L611:
	if st.stop-cycles <= 3 {
		bpc = 611
		goto budgetOut
	}
	// 263: addi r7, r0, 0
	r[7] = 0 + 0x0
	// 264: addi r8, r10, 0
	r[8] = r[10] + 0x0
	// 265: addi r9, r0, 32
	r[9] = 0 + 0x20
	cycles, instret = cycles+3, instret+3
L614:
	if st.stop-cycles <= 16 {
		bpc = 614
		goto budgetOut
	}
	// 266: srli r5, r8, 31
	r[5] = r[8] >> 31
	// 267: slli r8, r8, 1
	r[8] = r[8] << 1
	// 268: slli r7, r7, 1
	r[7] = r[7] << 1
	// 269: bne r5, r0, 2
	if r[5] != 0 {
		cycles, instret = cycles+5, instret+4
		goto L619
	}
	cycles, instret = cycles+4, instret+4
	// 26a: bltu r8, r11, 3
	if r[8] < r[11] {
		cycles, instret = cycles+2, instret+1
		goto L621
	}
	cycles, instret = cycles+1, instret+1
L619:
	// 26b: sub r8, r8, r11
	r[8] = r[8] - r[11]
	// 26c: ori r7, r7, 1
	r[7] = r[7] | 0x1
	cycles, instret = cycles+2, instret+2
L621:
	// 26d: addi r9, r9, -1
	r[9] = r[9] + 0xffffffff
	// 26e: bne r9, r0, -8
	if r[9] != 0 {
		cycles, instret = cycles+3, instret+2
		goto L614
	}
	cycles, instret = cycles+2, instret+2
	// 26f: beq r8, r0, 2
	if r[8] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L625
	}
	cycles, instret = cycles+1, instret+1
	// 270: ori r7, r7, 1
	r[7] = r[7] | 0x1
	cycles, instret = cycles+1, instret+1
L625:
	// 271: addi r1, r3, 0
	r[1] = r[3] + 0x0
	// 272: addi r2, r12, 0
	r[2] = r[12] + 0x0
	// 273: addi r3, r7, 0
	r[3] = r[7] + 0x0
	// 274: jal r15, -524
	r[15] = 2516
	cycles, instret = cycles+5, instret+4
	goto L104
L629:
	if st.stop-cycles <= 2 {
		bpc = 629
		goto budgetOut
	}
	// 275: jal r0, 7
	cycles, instret = cycles+2, instret+1
	goto L636
L630:
	if st.stop-cycles <= 6 {
		bpc = 630
		goto budgetOut
	}
	// 276: slli r1, r3, 31
	r[1] = r[3] << 31
	// 277: lui r5, 0x7f80
	r[5] = 0x7f800000
	// 278: add r5, r5, r0
	r[5] = r[5] + 0
	// 279: or r1, r1, r5
	r[1] = r[1] | r[5]
	// 27a: jal r0, 2
	cycles, instret = cycles+6, instret+5
	goto L636
L635:
	if st.stop-cycles <= 2 {
		bpc = 635
		goto budgetOut
	}
	// 27b: jal r15, -558
	r[15] = 2544
	cycles, instret = cycles+2, instret+1
	goto L77
L636:
	if st.stop-cycles <= 11 {
		bpc = 636
		goto budgetOut
	}
	// 27c: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 636, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 27d: lw r10, 4(r14)
	a = r[14] + 0x4
	if a&3 == 0 && a <= DataBytes-4 {
		r[10] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 637, cycles+2, instret+1); !ok {
			goto errOut
		}
		r[10] = v
	}
	// 27e: lw r11, 8(r14)
	a = r[14] + 0x8
	if a&3 == 0 && a <= DataBytes-4 {
		r[11] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 638, cycles+4, instret+2); !ok {
			goto errOut
		}
		r[11] = v
	}
	// 27f: lw r12, 12(r14)
	a = r[14] + 0xc
	if a&3 == 0 && a <= DataBytes-4 {
		r[12] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 639, cycles+6, instret+3); !ok {
			goto errOut
		}
		r[12] = v
	}
	// 280: addi r14, r14, 16
	r[14] = r[14] + 0x10
	// 281: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+11, instret+6
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L642:
	if st.stop-cycles <= 3 {
		bpc = 642
		goto budgetOut
	}
	// 282: bne r1, r0, 2
	if r[1] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L644
	}
	cycles, instret = cycles+1, instret+1
	// 283: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+2, instret+1
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L644:
	if st.stop-cycles <= 7 {
		bpc = 644
		goto budgetOut
	}
	// 284: lui r5, 0x8000
	r[5] = 0x80000000
	// 285: add r5, r5, r0
	r[5] = r[5] + 0
	// 286: bne r1, r5, 4
	if r[1] != r[5] {
		cycles, instret = cycles+4, instret+3
		goto L650
	}
	cycles, instret = cycles+3, instret+3
	// 287: lui r1, 0xcf00
	r[1] = 0xcf000000
	// 288: add r1, r1, r0
	r[1] = r[1] + 0
	// 289: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+4, instret+3
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L650:
	if st.stop-cycles <= 8 {
		bpc = 650
		goto budgetOut
	}
	// 28a: slt r5, r1, r0
	r[5] = b2u(int32(r[1]) < int32(0))
	// 28b: bge r1, r0, 2
	if int32(r[1]) >= int32(0) {
		cycles, instret = cycles+3, instret+2
		goto L653
	}
	cycles, instret = cycles+2, instret+2
	// 28c: sub r1, r0, r1
	r[1] = 0 - r[1]
	cycles, instret = cycles+1, instret+1
L653:
	// 28d: addi r3, r1, 0
	r[3] = r[1] + 0x0
	// 28e: addi r1, r5, 0
	r[1] = r[5] + 0x0
	// 28f: addi r2, r0, 156
	r[2] = 0 + 0x9c
	// 290: jal r0, -508
	cycles, instret = cycles+5, instret+4
	goto L148
L657:
	if st.stop-cycles <= 24 {
		bpc = 657
		goto budgetOut
	}
	// 291: lui r5, 0x7f
	r[5] = 0x7f0000
	// 292: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 293: and r6, r1, r5
	r[6] = r[1] & r[5]
	// 294: srli r7, r1, 23
	r[7] = r[1] >> 23
	// 295: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 296: srli r8, r1, 31
	r[8] = r[1] >> 31
	// 297: addi r5, r0, 255
	r[5] = 0 + 0xff
	// 298: bne r7, r5, 2
	if r[7] != r[5] {
		cycles, instret = cycles+9, instret+8
		goto L666
	}
	cycles, instret = cycles+8, instret+8
	// 299: bne r6, r0, 18
	if r[6] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L683
	}
	cycles, instret = cycles+1, instret+1
L666:
	// 29a: beq r7, r0, 4
	if r[7] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L670
	}
	cycles, instret = cycles+1, instret+1
	// 29b: lui r5, 0x80
	r[5] = 0x800000
	// 29c: add r5, r5, r0
	r[5] = r[5] + 0
	// 29d: or r6, r6, r5
	r[6] = r[6] | r[5]
	cycles, instret = cycles+3, instret+3
L670:
	// 29e: addi r9, r7, -150
	r[9] = r[7] + 0xffffff6a
	// 29f: addi r5, r0, 8
	r[5] = 0 + 0x8
	// 2a0: blt r9, r5, 14
	if int32(r[9]) < int32(r[5]) {
		cycles, instret = cycles+4, instret+3
		goto L686
	}
	cycles, instret = cycles+3, instret+3
	// 2a1: lui r5, 0xcf00
	r[5] = 0xcf000000
	// 2a2: add r5, r5, r0
	r[5] = r[5] + 0
	// 2a3: beq r1, r5, 5
	if r[1] == r[5] {
		cycles, instret = cycles+4, instret+3
		goto L680
	}
	cycles, instret = cycles+3, instret+3
	// 2a4: bne r8, r0, 4
	if r[8] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L680
	}
	cycles, instret = cycles+1, instret+1
	// 2a5: lui r1, 0x7fff
	r[1] = 0x7fff0000
	// 2a6: ori r1, r1, 65535
	r[1] = r[1] | 0xffff
	// 2a7: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+4, instret+3
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L680:
	if st.stop-cycles <= 4 {
		bpc = 680
		goto budgetOut
	}
	// 2a8: lui r1, 0x8000
	r[1] = 0x80000000
	// 2a9: add r1, r1, r0
	r[1] = r[1] + 0
	// 2aa: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+4, instret+3
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L683:
	if st.stop-cycles <= 4 {
		bpc = 683
		goto budgetOut
	}
	// 2ab: lui r1, 0x8000
	r[1] = 0x80000000
	// 2ac: add r1, r1, r0
	r[1] = r[1] + 0
	// 2ad: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+4, instret+3
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L686:
	if st.stop-cycles <= 4 {
		bpc = 686
		goto budgetOut
	}
	// 2ae: blt r9, r0, 3
	if int32(r[9]) < int32(0) {
		cycles, instret = cycles+2, instret+1
		goto L689
	}
	cycles, instret = cycles+1, instret+1
	// 2af: sll r6, r6, r9
	r[6] = r[6] << (r[9] & 31)
	// 2b0: jal r0, 18
	cycles, instret = cycles+3, instret+2
	goto L706
L689:
	if st.stop-cycles <= 6 {
		bpc = 689
		goto budgetOut
	}
	// 2b1: sub r9, r0, r9
	r[9] = 0 - r[9]
	// 2b2: addi r5, r0, 32
	r[5] = 0 + 0x20
	// 2b3: blt r9, r5, 3
	if int32(r[9]) < int32(r[5]) {
		cycles, instret = cycles+4, instret+3
		goto L694
	}
	cycles, instret = cycles+3, instret+3
	// 2b4: addi r1, r0, 0
	r[1] = 0 + 0x0
	// 2b5: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L694:
	if st.stop-cycles <= 12 {
		bpc = 694
		goto budgetOut
	}
	// 2b6: srl r5, r6, r9
	r[5] = r[6] >> (r[9] & 31)
	// 2b7: addi r7, r0, 32
	r[7] = 0 + 0x20
	// 2b8: sub r7, r7, r9
	r[7] = r[7] - r[9]
	// 2b9: sll r6, r6, r7
	r[6] = r[6] << (r[7] & 31)
	// 2ba: lui r7, 0x8000
	r[7] = 0x80000000
	// 2bb: add r7, r7, r0
	r[7] = r[7] + 0
	// 2bc: bltu r7, r6, 4
	if r[7] < r[6] {
		cycles, instret = cycles+8, instret+7
		goto L704
	}
	cycles, instret = cycles+7, instret+7
	// 2bd: bne r6, r7, 4
	if r[6] != r[7] {
		cycles, instret = cycles+2, instret+1
		goto L705
	}
	cycles, instret = cycles+1, instret+1
	// 2be: andi r6, r5, 1
	r[6] = r[5] & 0x1
	// 2bf: beq r6, r0, 2
	if r[6] == 0 {
		cycles, instret = cycles+3, instret+2
		goto L705
	}
	cycles, instret = cycles+2, instret+2
L704:
	// 2c0: addi r5, r5, 1
	r[5] = r[5] + 0x1
	cycles, instret = cycles+1, instret+1
L705:
	// 2c1: addi r6, r5, 0
	r[6] = r[5] + 0x0
	cycles, instret = cycles+1, instret+1
L706:
	if st.stop-cycles <= 5 {
		bpc = 706
		goto budgetOut
	}
	// 2c2: beq r8, r0, 2
	if r[8] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L708
	}
	cycles, instret = cycles+1, instret+1
	// 2c3: sub r6, r0, r6
	r[6] = 0 - r[6]
	cycles, instret = cycles+1, instret+1
L708:
	// 2c4: addi r1, r6, 0
	r[1] = r[6] + 0x0
	// 2c5: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L710:
	if st.stop-cycles <= 12 {
		bpc = 710
		goto budgetOut
	}
	// 2c6: lui r5, 0x7f
	r[5] = 0x7f0000
	// 2c7: ori r5, r5, 65535
	r[5] = r[5] | 0xffff
	// 2c8: addi r8, r0, 255
	r[8] = 0 + 0xff
	// 2c9: addi r9, r0, 0
	r[9] = 0 + 0x0
	// 2ca: and r6, r1, r5
	r[6] = r[1] & r[5]
	// 2cb: srli r7, r1, 23
	r[7] = r[1] >> 23
	// 2cc: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 2cd: bne r7, r8, 4
	if r[7] != r[8] {
		cycles, instret = cycles+9, instret+8
		goto L721
	}
	cycles, instret = cycles+8, instret+8
	// 2ce: beq r6, r0, 3
	if r[6] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L721
	}
	cycles, instret = cycles+1, instret+1
	// 2cf: addi r9, r0, 1
	r[9] = 0 + 0x1
	// 2d0: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L721:
	if st.stop-cycles <= 8 {
		bpc = 721
		goto budgetOut
	}
	// 2d1: and r6, r2, r5
	r[6] = r[2] & r[5]
	// 2d2: srli r7, r2, 23
	r[7] = r[2] >> 23
	// 2d3: andi r7, r7, 255
	r[7] = r[7] & 0xff
	// 2d4: bne r7, r8, 3
	if r[7] != r[8] {
		cycles, instret = cycles+5, instret+4
		goto L727
	}
	cycles, instret = cycles+4, instret+4
	// 2d5: beq r6, r0, 2
	if r[6] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L727
	}
	cycles, instret = cycles+1, instret+1
	// 2d6: addi r9, r0, 1
	r[9] = 0 + 0x1
	cycles, instret = cycles+1, instret+1
L727:
	// 2d7: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+2, instret+1
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L728:
	if st.stop-cycles <= 4 {
		bpc = 728
		goto budgetOut
	}
	// 2d8: addi r14, r14, -4
	r[14] = r[14] + 0xfffffffc
	// 2d9: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 729, cycles+1, instret+1) {
		goto errOut
	}
	// 2da: jal r15, -20
	r[15] = 2924
	cycles, instret = cycles+4, instret+3
	goto L710
L731:
	if st.stop-cycles <= 11 {
		bpc = 731
		goto budgetOut
	}
	// 2db: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 731, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 2dc: addi r14, r14, 4
	r[14] = r[14] + 0x4
	// 2dd: bne r9, r0, 5
	if r[9] != 0 {
		cycles, instret = cycles+5, instret+3
		goto L738
	}
	cycles, instret = cycles+4, instret+3
	// 2de: beq r1, r2, 6
	if r[1] == r[2] {
		cycles, instret = cycles+2, instret+1
		goto L740
	}
	cycles, instret = cycles+1, instret+1
	// 2df: or r5, r1, r2
	r[5] = r[1] | r[2]
	// 2e0: slli r5, r5, 1
	r[5] = r[5] << 1
	// 2e1: beq r5, r0, 3
	if r[5] == 0 {
		cycles, instret = cycles+4, instret+3
		goto L740
	}
	cycles, instret = cycles+3, instret+3
L738:
	// 2e2: addi r1, r0, 0
	r[1] = 0 + 0x0
	// 2e3: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L740:
	if st.stop-cycles <= 3 {
		bpc = 740
		goto budgetOut
	}
	// 2e4: addi r1, r0, 1
	r[1] = 0 + 0x1
	// 2e5: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L742:
	if st.stop-cycles <= 4 {
		bpc = 742
		goto budgetOut
	}
	// 2e6: addi r14, r14, -4
	r[14] = r[14] + 0xfffffffc
	// 2e7: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 743, cycles+1, instret+1) {
		goto errOut
	}
	// 2e8: jal r15, -34
	r[15] = 2980
	cycles, instret = cycles+4, instret+3
	goto L710
L745:
	if st.stop-cycles <= 13 {
		bpc = 745
		goto budgetOut
	}
	// 2e9: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 745, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 2ea: addi r14, r14, 4
	r[14] = r[14] + 0x4
	// 2eb: bne r9, r0, 15
	if r[9] != 0 {
		cycles, instret = cycles+5, instret+3
		goto L762
	}
	cycles, instret = cycles+4, instret+3
	// 2ec: srli r5, r1, 31
	r[5] = r[1] >> 31
	// 2ed: srli r6, r2, 31
	r[6] = r[2] >> 31
	// 2ee: bne r5, r6, 6
	if r[5] != r[6] {
		cycles, instret = cycles+4, instret+3
		goto L756
	}
	cycles, instret = cycles+3, instret+3
	// 2ef: beq r5, r0, 3
	if r[5] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L754
	}
	cycles, instret = cycles+1, instret+1
	// 2f0: bltu r2, r1, 8
	if r[2] < r[1] {
		cycles, instret = cycles+2, instret+1
		goto L760
	}
	cycles, instret = cycles+1, instret+1
	// 2f1: jal r0, 9
	cycles, instret = cycles+2, instret+1
	goto L762
L754:
	if st.stop-cycles <= 5 {
		bpc = 754
		goto budgetOut
	}
	// 2f2: bltu r1, r2, 6
	if r[1] < r[2] {
		cycles, instret = cycles+2, instret+1
		goto L760
	}
	cycles, instret = cycles+1, instret+1
	// 2f3: jal r0, 7
	cycles, instret = cycles+2, instret+1
	goto L762
L756:
	if st.stop-cycles <= 7 {
		bpc = 756
		goto budgetOut
	}
	// 2f4: beq r5, r0, 6
	if r[5] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L762
	}
	cycles, instret = cycles+1, instret+1
	// 2f5: or r7, r1, r2
	r[7] = r[1] | r[2]
	// 2f6: slli r7, r7, 1
	r[7] = r[7] << 1
	// 2f7: beq r7, r0, 3
	if r[7] == 0 {
		cycles, instret = cycles+4, instret+3
		goto L762
	}
	cycles, instret = cycles+3, instret+3
L760:
	// 2f8: addi r1, r0, 1
	r[1] = 0 + 0x1
	// 2f9: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L762:
	if st.stop-cycles <= 3 {
		bpc = 762
		goto budgetOut
	}
	// 2fa: addi r1, r0, 0
	r[1] = 0 + 0x0
	// 2fb: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L764:
	if st.stop-cycles <= 4 {
		bpc = 764
		goto budgetOut
	}
	// 2fc: addi r14, r14, -4
	r[14] = r[14] + 0xfffffffc
	// 2fd: sw r15, 0(r14)
	a = r[14] + 0x0
	v = r[15]
	if a&3 == 0 && a <= DataBytes-4 {
		data[a] = byte(v)
		data[a+1] = byte(v >> 8)
		data[a+2] = byte(v >> 16)
		data[a+3] = byte(v >> 24)
	} else if !st.storeSlow(c, a, v, 765, cycles+1, instret+1) {
		goto errOut
	}
	// 2fe: jal r15, -56
	r[15] = 3068
	cycles, instret = cycles+4, instret+3
	goto L710
L767:
	if st.stop-cycles <= 11 {
		bpc = 767
		goto budgetOut
	}
	// 2ff: lw r15, 0(r14)
	a = r[14] + 0x0
	if a&3 == 0 && a <= DataBytes-4 {
		r[15] = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24
	} else {
		if v, ok = st.loadSlow(c, a, 767, cycles+0, instret+0); !ok {
			goto errOut
		}
		r[15] = v
	}
	// 300: addi r14, r14, 4
	r[14] = r[14] + 0x4
	// 301: bne r9, r0, 13
	if r[9] != 0 {
		cycles, instret = cycles+5, instret+3
		goto L782
	}
	cycles, instret = cycles+4, instret+3
	// 302: srli r5, r1, 31
	r[5] = r[1] >> 31
	// 303: srli r6, r2, 31
	r[6] = r[2] >> 31
	// 304: bne r5, r6, 6
	if r[5] != r[6] {
		cycles, instret = cycles+4, instret+3
		goto L778
	}
	cycles, instret = cycles+3, instret+3
	// 305: beq r5, r0, 3
	if r[5] == 0 {
		cycles, instret = cycles+2, instret+1
		goto L776
	}
	cycles, instret = cycles+1, instret+1
	// 306: bgeu r1, r2, 10
	if r[1] >= r[2] {
		cycles, instret = cycles+2, instret+1
		goto L784
	}
	cycles, instret = cycles+1, instret+1
	// 307: jal r0, 7
	cycles, instret = cycles+2, instret+1
	goto L782
L776:
	if st.stop-cycles <= 3 {
		bpc = 776
		goto budgetOut
	}
	// 308: bgeu r2, r1, 8
	if r[2] >= r[1] {
		cycles, instret = cycles+2, instret+1
		goto L784
	}
	cycles, instret = cycles+1, instret+1
	// 309: jal r0, 5
	cycles, instret = cycles+2, instret+1
	goto L782
L778:
	if st.stop-cycles <= 5 {
		bpc = 778
		goto budgetOut
	}
	// 30a: bne r5, r0, 6
	if r[5] != 0 {
		cycles, instret = cycles+2, instret+1
		goto L784
	}
	cycles, instret = cycles+1, instret+1
	// 30b: or r7, r1, r2
	r[7] = r[1] | r[2]
	// 30c: slli r7, r7, 1
	r[7] = r[7] << 1
	// 30d: beq r7, r0, 3
	if r[7] == 0 {
		cycles, instret = cycles+4, instret+3
		goto L784
	}
	cycles, instret = cycles+3, instret+3
L782:
	if st.stop-cycles <= 3 {
		bpc = 782
		goto budgetOut
	}
	// 30e: addi r1, r0, 0
	r[1] = 0 + 0x0
	// 30f: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
	default:
		st.pc = v
		goto okOut
	}
L784:
	if st.stop-cycles <= 3 {
		bpc = 784
		goto budgetOut
	}
	// 310: addi r1, r0, 1
	r[1] = 0 + 0x1
	// 311: jalr r0, r15, 0
	v = (r[15] + 0x0) / 4
	cycles, instret = cycles+3, instret+2
	switch v {
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
	case 36:
		goto L36
	case 47:
		goto L47
	case 50:
		goto L50
	case 75:
		goto L75
	case 77:
		goto L77
	case 89:
		goto L89
	case 101:
		goto L101
	case 104:
		goto L104
	case 119:
		goto L119
	case 122:
		goto L122
	case 124:
		goto L124
	case 138:
		goto L138
	case 142:
		goto L142
	case 148:
		goto L148
	case 156:
		goto L156
	case 165:
		goto L165
	case 170:
		goto L170
	case 175:
		goto L175
	case 179:
		goto L179
	case 196:
		goto L196
	case 202:
		goto L202
	case 204:
		goto L204
	case 205:
		goto L205
	case 210:
		goto L210
	case 215:
		goto L215
	case 217:
		goto L217
	case 263:
		goto L263
	case 270:
		goto L270
	case 296:
		goto L296
	case 299:
		goto L299
	case 302:
		goto L302
	case 306:
		goto L306
	case 308:
		goto L308
	case 312:
		goto L312
	case 315:
		goto L315
	case 318:
		goto L318
	case 322:
		goto L322
	case 323:
		goto L323
	case 336:
		goto L336
	case 337:
		goto L337
	case 342:
		goto L342
	case 348:
		goto L348
	case 356:
		goto L356
	case 357:
		goto L357
	case 358:
		goto L358
	case 364:
		goto L364
	case 391:
		goto L391
	case 394:
		goto L394
	case 397:
		goto L397
	case 401:
		goto L401
	case 408:
		goto L408
	case 412:
		goto L412
	case 415:
		goto L415
	case 418:
		goto L418
	case 422:
		goto L422
	case 428:
		goto L428
	case 435:
		goto L435
	case 441:
		goto L441
	case 444:
		goto L444
	case 447:
		goto L447
	case 451:
		goto L451
	case 452:
		goto L452
	case 453:
		goto L453
	case 459:
		goto L459
	case 481:
		goto L481
	case 486:
		goto L486
	case 493:
		goto L493
	case 498:
		goto L498
	case 502:
		goto L502
	case 504:
		goto L504
	case 512:
		goto L512
	case 514:
		goto L514
	case 538:
		goto L538
	case 539:
		goto L539
	case 540:
		goto L540
	case 546:
		goto L546
	case 570:
		goto L570
	case 574:
		goto L574
	case 581:
		goto L581
	case 583:
		goto L583
	case 591:
		goto L591
	case 593:
		goto L593
	case 609:
		goto L609
	case 611:
		goto L611
	case 629:
		goto L629
	case 630:
		goto L630
	case 635:
		goto L635
	case 636:
		goto L636
	case 642:
		goto L642
	case 644:
		goto L644
	case 650:
		goto L650
	case 657:
		goto L657
	case 680:
		goto L680
	case 683:
		goto L683
	case 686:
		goto L686
	case 689:
		goto L689
	case 694:
		goto L694
	case 706:
		goto L706
	case 710:
		goto L710
	case 721:
		goto L721
	case 728:
		goto L728
	case 731:
		goto L731
	case 740:
		goto L740
	case 742:
		goto L742
	case 745:
		goto L745
	case 754:
		goto L754
	case 756:
		goto L756
	case 762:
		goto L762
	case 764:
		goto L764
	case 767:
		goto L767
	case 776:
		goto L776
	case 778:
		goto L778
	case 782:
		goto L782
	case 784:
		goto L784
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
