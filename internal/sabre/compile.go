package sabre

import "slices"

// This file is the block translator of the compiled engine: the lazy
// bridge from a block entry pc to an executable closure. Translation
// happens at most once per entry pc per loaded program (LoadProgram
// invalidates the table together with the decoded array), so its cost
// is predecode-class and the steady state allocates nothing.
//
// Translation strategy, in order:
//
//  1. Kernel. kernels_gen.go holds a whole-program kernel for two
//     bundled programs, the SoftFloat Kalman filter and the fixed-point
//     boresight estimator. Once per LoadProgram, resetBlocks compares
//     program memory word for word with each kernel's program
//     (matchKernel); when one matches, every entry pc in the kernel's
//     leader table binds the kernel, with the leader's worst-case
//     cycles to its first budget check. Other entry pcs (a resumed run
//     can stop anywhere) take the next tier; correctness never depends
//     on a kernel binding.
//
//  2. Runtime block. Everything else is translated by the runtime tier
//     (regiongen.go) into a chain of per-record closures with the
//     counters charged once per block, no per-instruction budget
//     checks, self-loops run inside the block, and recognised SoftFloat
//     call targets lowered to the native intrinsic mirrors. This covers
//     every block of every other program; in speed it sits near the
//     default engine on integer code, well short of the generated
//     kernels. The generic closure (runcompiled.go) remains as the
//     defensive rebind path.

// genKernel is one generated whole-program kernel: the program words
// it was generated from, its leaders (the entry pcs it accepts) with
// the worst-case cycles from each to its first budget check, and the
// kernel function.
type genKernel struct {
	fn      blockFn
	words   []uint32
	leaders map[uint32]uint32
}

// matchKernel returns the generated kernel whose program opens prog,
// or nil. A kernel addresses its program at absolute pcs, so only a
// raw-word match from word 0 binds it.
func matchKernel(prog []uint32) *genKernel {
	for _, k := range kernels {
		if len(k.words) <= len(prog) && slices.Equal(k.words, prog[:len(k.words)]) {
			return k
		}
	}
	return nil
}

// compileBlockAt translates the block entered at pc and installs it in
// the translation table, returning the installed slot.
func (c *CPU) compileBlockAt(pc uint32) *compiledBlock {
	if c.kernel != nil {
		if worst, ok := c.kernel.leaders[pc]; ok {
			c.blocks[pc] = compiledBlock{fn: c.kernel.fn, worst: worst, kind: blockKernel}
			return &c.blocks[pc]
		}
	}
	bi := scanBlockWords(c.Prog, pc)
	c.blocks[pc] = c.runtimeBlock(&bi)
	return &c.blocks[pc]
}
