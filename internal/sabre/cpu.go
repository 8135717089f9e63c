package sabre

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Peripheral is a bus-attached device occupying a window of the data
// address space. Offsets are byte offsets from the device base and are
// always word-aligned (the bus performs only 32-bit peripheral
// accesses, the paper's "32-bit bus into the processor memory space").
type Peripheral interface {
	// BusRead returns the word at the given byte offset.
	BusRead(offset uint32) uint32
	// BusWrite stores a word at the given byte offset.
	BusWrite(offset uint32, v uint32)
}

// Peripheral base addresses, following the SabreRun wiring of Figure 7.
// The data RAM occupies [0, DataBytes); peripheral windows sit above it.
const (
	LEDSBase    = 0x00010000
	SwitchBase  = 0x00010100
	TScreenBase = 0x00010200
	GUIBase     = 0x00010300
	Serial1Base = 0x00010400 // DMU link
	Serial2Base = 0x00010500 // ACC link
	AnglesBase  = 0x00010600 // control registers for the affine block
	CounterBase = 0x00010700 // free-running cycle counter (profiling)
	DebugBase   = 0x00010800 // emulator console (test output)
	periphSpan  = 0x100
)

// CPU faults.
var (
	ErrHalted        = errors.New("sabre: processor halted")
	ErrBadOpcode     = errors.New("sabre: illegal opcode")
	ErrPCOutOfRange  = errors.New("sabre: PC outside program memory")
	ErrUnalignedWord = errors.New("sabre: unaligned word access")
	ErrBusFault      = errors.New("sabre: access to unmapped address")
	ErrCycleLimit    = errors.New("sabre: cycle limit exceeded")
)

// Predeclared wrapped faults shared by both engines, so the bus fault
// path allocates nothing. The faulting address is recorded in
// CPU.FaultAddr rather than formatted into the error.
var (
	errUnalignedLoad  = fmt.Errorf("%w (load)", ErrUnalignedWord)
	errUnalignedStore = fmt.Errorf("%w (store)", ErrUnalignedWord)
	errLoadFault      = fmt.Errorf("%w (load)", ErrBusFault)
	errStoreFault     = fmt.Errorf("%w (store)", ErrBusFault)
	errByteLoadFault  = fmt.Errorf("%w (byte load)", ErrBusFault)
	errByteStoreFault = fmt.Errorf("%w (byte store)", ErrBusFault)
)

// CPU is the Sabre emulator state.
type CPU struct {
	PC   uint32 // word index into program memory
	R    [16]uint32
	Prog []uint32
	Data []byte

	// Cycles counts clock cycles using the core's timing model:
	// 1 cycle per instruction, +1 for loads, +3 for multiplies,
	// +1 for taken branches and jumps.
	Cycles  uint64
	Instret uint64 // instructions retired
	Halted  bool

	// Engine selects the execution engine used by Run. The zero value
	// is EngineFast (predecoded and fused, with the SoftFloat mirrors
	// and the generated kernels for the Kalman and boresight programs);
	// EngineRef forces the reference fetch-decode-execute loop.
	Engine Engine

	// FaultAddr holds the data address of the most recent bus fault
	// (the predeclared fault errors carry no address of their own).
	FaultAddr uint32

	// dec is the predecoded program cache used by RunFast, rebuilt
	// lazily after LoadProgram invalidates it. The backing array is
	// allocated once and reused across program reloads.
	dec      []decoded
	decValid bool
	// maxRun is the largest straight-line (checkpoint-free) cycle cost
	// through the fused program, and runCost its computation scratch —
	// see computeMaxRun in decode.go.
	maxRun  uint64
	runCost []uint32
	// kernel is the generated kernel whose program the loaded one is
	// (nil when none), matched by predecode, so it goes stale with dec.
	kernel *genKernel
	cstats *CompiledStats
	// cstate is the state kernels and mirrors run on; it lives on the
	// CPU because they take its address, which would force a heap
	// allocation per run if it were a local.
	cstate cst

	// periphs is a dense dispatch table indexed by
	// (base − DataBytes) / periphSpan, grown by Map. The hot bus path
	// pays one bounds check and a nil test per peripheral access
	// instead of a map hash — the software equivalent of the FPGA bus
	// fabric's fixed address decoder.
	periphs []Peripheral
}

// New returns a CPU with empty memories and no peripherals.
func New() *CPU {
	return &CPU{
		Prog: make([]uint32, ProgWords),
		Data: make([]byte, DataBytes),
	}
}

// Map attaches a peripheral at a base address (must be one of the
// *Base constants or any 256-byte-aligned address above the data RAM).
func (c *CPU) Map(base uint32, p Peripheral) {
	if base < DataBytes || base%periphSpan != 0 {
		panic(fmt.Sprintf("sabre: bad peripheral base %#x", base))
	}
	idx := (base - DataBytes) / periphSpan
	for uint32(len(c.periphs)) <= idx {
		c.periphs = append(c.periphs, nil)
	}
	c.periphs[idx] = p
}

// LoadProgram copies machine words into program memory from word 0 and
// resets the processor.
func (c *CPU) LoadProgram(words []uint32) error {
	if len(words) > ProgWords {
		return fmt.Errorf("sabre: program of %d words exceeds %d-word store", len(words), ProgWords)
	}
	for i := range c.Prog {
		c.Prog[i] = 0
	}
	copy(c.Prog, words)
	// The decoded (and fused) record array, its lowered SoftFloat calls
	// and the kernel match describe the outgoing program and go stale
	// together.
	c.decValid = false
	c.Reset()
	return nil
}

// Reset clears registers, PC and counters (memories are preserved).
func (c *CPU) Reset() {
	c.PC = 0
	c.R = [16]uint32{}
	c.Cycles = 0
	c.Instret = 0
	c.Halted = false
}

// periphAt resolves a data-space address above the RAM window to the
// peripheral owning its 256-byte span and the byte offset within that
// span. Returns nil for unmapped addresses.
func (c *CPU) periphAt(addr uint32) (Peripheral, uint32) {
	base := addr &^ uint32(periphSpan-1)
	if idx := (base - DataBytes) / periphSpan; base >= DataBytes && idx < uint32(len(c.periphs)) {
		if p := c.periphs[idx]; p != nil {
			return p, addr - base
		}
	}
	return nil, 0
}

// busLoad performs a data-space word read.
func (c *CPU) busLoad(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		c.FaultAddr = addr
		return 0, errUnalignedLoad
	}
	if addr+3 < DataBytes {
		return binary.LittleEndian.Uint32(c.Data[addr:]), nil
	}
	if p, off := c.periphAt(addr); p != nil {
		return p.BusRead(off), nil
	}
	c.FaultAddr = addr
	return 0, errLoadFault
}

// busStore performs a data-space word write.
func (c *CPU) busStore(addr, v uint32) error {
	if addr%4 != 0 {
		c.FaultAddr = addr
		return errUnalignedStore
	}
	if addr+3 < DataBytes {
		binary.LittleEndian.PutUint32(c.Data[addr:], v)
		return nil
	}
	if p, off := c.periphAt(addr); p != nil {
		p.BusWrite(off, v)
		return nil
	}
	c.FaultAddr = addr
	return errStoreFault
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.Halted {
		return ErrHalted
	}
	if c.PC >= ProgWords {
		return fmt.Errorf("%w: pc=%d", ErrPCOutOfRange, c.PC)
	}
	w := c.Prog[c.PC]
	op := decOp(w)
	nextPC := c.PC + 1
	cost := uint64(1)

	switch op {
	case OpHALT:
		c.Halted = true
	case OpADD:
		c.setR(decRD(w), c.R[decRS1(w)]+c.R[decRS2(w)])
	case OpSUB:
		c.setR(decRD(w), c.R[decRS1(w)]-c.R[decRS2(w)])
	case OpAND:
		c.setR(decRD(w), c.R[decRS1(w)]&c.R[decRS2(w)])
	case OpOR:
		c.setR(decRD(w), c.R[decRS1(w)]|c.R[decRS2(w)])
	case OpXOR:
		c.setR(decRD(w), c.R[decRS1(w)]^c.R[decRS2(w)])
	case OpSLL:
		c.setR(decRD(w), c.R[decRS1(w)]<<(c.R[decRS2(w)]&31))
	case OpSRL:
		c.setR(decRD(w), c.R[decRS1(w)]>>(c.R[decRS2(w)]&31))
	case OpSRA:
		c.setR(decRD(w), uint32(int32(c.R[decRS1(w)])>>(c.R[decRS2(w)]&31)))
	case OpMUL:
		c.setR(decRD(w), c.R[decRS1(w)]*c.R[decRS2(w)])
		cost += 3
	case OpMULHU:
		p := uint64(c.R[decRS1(w)]) * uint64(c.R[decRS2(w)])
		c.setR(decRD(w), uint32(p>>32))
		cost += 3
	case OpSLT:
		c.setR(decRD(w), b2u(int32(c.R[decRS1(w)]) < int32(c.R[decRS2(w)])))
	case OpSLTU:
		c.setR(decRD(w), b2u(c.R[decRS1(w)] < c.R[decRS2(w)]))
	case OpADDI:
		c.setR(decRD(w), c.R[decRS1(w)]+uint32(decImm18(w)))
	case OpANDI:
		c.setR(decRD(w), c.R[decRS1(w)]&uint32(decImm18(w)))
	case OpORI:
		c.setR(decRD(w), c.R[decRS1(w)]|uint32(decImm18(w)))
	case OpXORI:
		c.setR(decRD(w), c.R[decRS1(w)]^uint32(decImm18(w)))
	case OpSLLI:
		c.setR(decRD(w), c.R[decRS1(w)]<<(uint32(decImm18(w))&31))
	case OpSRLI:
		c.setR(decRD(w), c.R[decRS1(w)]>>(uint32(decImm18(w))&31))
	case OpSRAI:
		c.setR(decRD(w), uint32(int32(c.R[decRS1(w)])>>(uint32(decImm18(w))&31)))
	case OpSLTI:
		c.setR(decRD(w), b2u(int32(c.R[decRS1(w)]) < decImm18(w)))
	case OpSLTIU:
		c.setR(decRD(w), b2u(c.R[decRS1(w)] < uint32(decImm18(w))))
	case OpLUI:
		c.setR(decRD(w), decImm16(w)<<16)
	case OpLW:
		v, err := c.busLoad(c.R[decRS1(w)] + uint32(decImm18(w)))
		if err != nil {
			return err
		}
		c.setR(decRD(w), v)
		cost++
	case OpLB, OpLBU:
		addr := c.R[decRS1(w)] + uint32(decImm18(w))
		if addr >= DataBytes {
			c.FaultAddr = addr
			return errByteLoadFault
		}
		v := uint32(c.Data[addr])
		if op == OpLB {
			v = uint32(int32(int8(v)))
		}
		c.setR(decRD(w), v)
		cost++
	case OpSW:
		if err := c.busStore(c.R[decRS1(w)]+uint32(decImm18(w)), c.R[decRD(w)]); err != nil {
			return err
		}
	case OpSB:
		addr := c.R[decRS1(w)] + uint32(decImm18(w))
		if addr >= DataBytes {
			c.FaultAddr = addr
			return errByteStoreFault
		}
		c.Data[addr] = byte(c.R[decRD(w)])
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		a := c.R[w>>22&0xF]
		b := c.R[w>>18&0xF]
		var taken bool
		switch op {
		case OpBEQ:
			taken = a == b
		case OpBNE:
			taken = a != b
		case OpBLT:
			taken = int32(a) < int32(b)
		case OpBGE:
			taken = int32(a) >= int32(b)
		case OpBLTU:
			taken = a < b
		case OpBGEU:
			taken = a >= b
		}
		if taken {
			nextPC = uint32(int32(c.PC) + decImm18(w))
			cost++
		}
	case OpJAL:
		c.setR(decRD(w), (c.PC+1)*4)
		nextPC = uint32(int32(c.PC) + decImm22(w))
		cost++
	case OpJALR:
		target := (c.R[decRS1(w)] + uint32(decImm18(w))) / 4
		c.setR(decRD(w), (c.PC+1)*4)
		nextPC = target
		cost++
	default:
		return fmt.Errorf("%w: %d at pc=%d", ErrBadOpcode, op, c.PC)
	}

	c.PC = nextPC
	c.Cycles += cost
	c.Instret++
	return nil
}

func (c *CPU) setR(rd int, v uint32) {
	if rd != 0 {
		c.R[rd] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run executes until HALT or until maxCycles elapse, returning the
// cycles consumed. Reaching the limit returns ErrCycleLimit. The
// execution engine is selected by c.Engine (fast by default).
func (c *CPU) Run(maxCycles uint64) (uint64, error) {
	if c.Engine == EngineRef {
		return c.RunRef(maxCycles)
	}
	return c.RunFast(maxCycles)
}

// RunRef is the reference engine: one Step() per instruction, fetching
// and decoding the raw program word every cycle. It defines the
// architectural and cycle-accounting behaviour RunFast must match.
func (c *CPU) RunRef(maxCycles uint64) (uint64, error) {
	start := c.Cycles
	for !c.Halted {
		if c.Cycles-start >= maxCycles {
			return c.Cycles - start, ErrCycleLimit
		}
		if err := c.Step(); err != nil {
			return c.Cycles - start, err
		}
	}
	return c.Cycles - start, nil
}

// LoadWord reads a word from data RAM (host-side test access).
func (c *CPU) LoadWord(addr uint32) uint32 {
	v, err := c.busLoad(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// StoreWord writes a word to data RAM (host-side test access).
func (c *CPU) StoreWord(addr, v uint32) {
	if err := c.busStore(addr, v); err != nil {
		panic(err)
	}
}
