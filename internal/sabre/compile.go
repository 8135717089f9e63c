package sabre

// This file is the block translator of the compiled engine: the lazy
// bridge from a block entry pc to an executable closure. Translation
// happens at most once per entry pc per loaded program (LoadProgram
// invalidates the table together with the decoded array), so its cost
// is predecode-class and the steady state allocates nothing.
//
// Translation strategy, in order:
//
//  1. Kernel match. The entry block's position-independent signature
//     hash keys into the registry of translated regions (kernels_gen.go
//     holds the generated region kernels for the bundled SoftFloat
//     library and application programs). A hit is confirmed by
//     verifying the candidate's full region signature against program
//     memory — every record, not just the hash — before the region
//     closure is bound at this leader. Mid-region entries that are not registered leaders (a
//     resumed run can stop anywhere) simply miss and take the generic
//     path; correctness never depends on a kernel binding.
//
//  2. Runtime block. Anything unrecognised is translated by the runtime
//     tier (regiongen.go) into a chain of per-record closures with the
//     counters charged once per block, no per-instruction budget
//     checks, self-loops run inside the block, and recognised SoftFloat
//     call targets lowered to the native intrinsic mirrors. This covers
//     every block of a runtime-assembled program; in speed it sits near
//     the default engine on integer code, well short of the generated
//     kernels. The generic closure (runcompiled.go) remains as the
//     defensive rebind path.

// compileBlockAt translates the block entered at pc and installs it in
// the translation table, returning the installed slot.
func (c *CPU) compileBlockAt(pc uint32) *compiledBlock {
	bi := scanBlockWords(c.Prog, pc)
	key := blockKeyWords(c.Prog, pc, &bi)
	for _, k := range kernelIndex[key] {
		if k.backOff > pc {
			continue
		}
		base := pc - k.backOff
		if matchSigWords(c.Prog, base, k.sig) {
			c.blocks[pc] = compiledBlock{fn: k.bind(base), worst: k.worst, kind: k.kind}
			return &c.blocks[pc]
		}
	}
	c.blocks[pc] = c.runtimeBlock(&bi)
	return &c.blocks[pc]
}
