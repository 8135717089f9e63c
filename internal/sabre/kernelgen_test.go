package sabre

// kernelgen_test.go generates kernels_gen.go, the whole-program kernels
// of the fast execution engine (kernel.go). It is a test so
// that it is built by the toolchain the repo already uses and so
// staleness is caught by `go test`: without -update-kernels the test
// regenerates the source in memory and fails if the committed file
// differs.
//
// Two bundled programs get a kernel: the SoftFloat Kalman filter and
// the fixed-point boresight estimator, the programs perfbench's kalman
// and fx classes measure. Every other program (the control program,
// the Q16.16 Kalman, the SoftFloat batch harnesses, any
// runtime-assembled code) runs on the interpreter (runfast.go).
// Each kernel is one Go function covering its entire program:
//
//   - internal control flow is lowered to gotos between labelled basic
//     blocks; a JAL becomes a goto with the link register written, and
//     a JALR a constant-case switch over the kernel's leaders (the
//     program entry, every JAL target and every post-call resume
//     point), so a run dispatches once and executes to completion;
//   - budget checks are *hoisted*: only leaders and backward control-
//     flow targets re-check the cycle budget (every loop must cross
//     one per iteration), and each checked head's threshold folds in
//     the worst-case cost of the unchecked forward-only heads it
//     dominates (a memoised DAG recursion over forward edges), so
//     straight-line chains of blocks pay one compare. stBudget is
//     still returned at an exact instruction boundary;
//   - loads and stores take an open-coded byte-assembled fast path for
//     in-RAM aligned addresses (measurably faster here than a sliced
//     little-endian helper) and fall back to st.loadSlow/storeSlow
//     (which flush exact mid-block counters) for MMIO and faults;
//   - the register file is addressed as r[N] array elements directly:
//     with hundreds of join points the compiler would spill
//     per-register locals to the stack and shuffle them at every join,
//     so constant-index array slots are cheaper;
//   - a call to a routine of a canonical SoftFloat blob, found with
//     findBlob, first tries the routine's native mirror
//     (intrinsics.go).
//
// A kernel runs its program at absolute pcs, so it binds only to a
// program memory that opens with exactly the words it was generated
// from (matchKernel in kernel.go), and only at its leaders, each with
// the worst-case cycles its own budget check at that leader tests.

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var updateKernels = flag.Bool("update-kernels", false, "rewrite kernels_gen.go from the bundled programs")

// kernelUnit is one program that gets a generated kernel, and the name
// its kernel is emitted under.
type kernelUnit struct {
	name  string
	words []uint32
}

func kernelUnits(t testing.TB) []kernelUnit {
	var units []kernelUnit
	for _, u := range []struct {
		name string
		mk   func() (*Program, error)
	}{
		{"Kalman", KalmanProgram},
		{"FxBoresight", FxBoresightProgram},
	} {
		p, err := u.mk()
		if err != nil {
			t.Fatalf("assemble %s: %v", u.name, err)
		}
		units = append(units, kernelUnit{u.name, p.Words})
	}
	return units
}

// plainCost is the cycle cost of one plain (non-control) record.
func plainCost(op uint8) uint32 {
	switch op {
	case uint8(OpLW), uint8(OpLB), uint8(OpLBU):
		return 2
	case uint8(OpMUL), uint8(OpMULHU):
		return 4
	}
	return 1
}

// termWorst is the worst-case cycle cost of a block terminator: taken
// branches and jumps cost 2, HALT retires for 1, and illegal records
// fault before retiring anything.
func termWorst(op uint8) uint32 {
	switch op {
	case uint8(OpBEQ), uint8(OpBNE), uint8(OpBLT), uint8(OpBGE),
		uint8(OpBLTU), uint8(OpBGEU), uint8(OpJAL), uint8(OpJALR):
		return 2
	case uint8(OpHALT):
		return 1
	}
	return 0 // xopIllegal
}

// isTermOp reports whether a plain record ends a basic block: a
// control transfer, HALT or an illegal record.
func isTermOp(op uint8) bool {
	switch op {
	case uint8(OpBEQ), uint8(OpBNE), uint8(OpBLT), uint8(OpBGE),
		uint8(OpBLTU), uint8(OpBGEU), uint8(OpJAL), uint8(OpJALR),
		uint8(OpHALT), xopIllegal:
		return true
	}
	return false
}

func isBranchOp(op uint8) bool {
	return op >= uint8(OpBEQ) && op <= uint8(OpBGEU)
}

func sortedU32(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// intrinSite is one lowerable call target: the mirror's function name
// and the word offset of the owning library blob.
type intrinSite struct {
	fn string
	lb uint32
}

// intrinSitesFor maps every routine entry of the canonical SoftFloat
// blobs the program embeds to its mirror, from the tables predecode's
// call lowering reads.
func intrinSitesFor(words []uint32) map[uint32]intrinSite {
	sites := map[uint32]intrinSite{}
	for _, blob := range []struct {
		words []uint32
		at    map[uint32]uint8
	}{{sfOff.arith, arithIntrins}, {sfOff.cmp, cmpIntrins}} {
		lb := findBlob(words, blob.words)
		if lb < 0 {
			continue
		}
		for off, m := range blob.at {
			fn := runtime.FuncForPC(reflect.ValueOf(mirrors[m].fn).Pointer()).Name()
			sites[uint32(lb)+off] = intrinSite{fn[strings.LastIndexByte(fn, '.')+1:], uint32(lb)}
		}
	}
	return sites
}

// kernelEmit emits one program's kernel.
type kernelEmit struct {
	b     *bytes.Buffer
	name  string
	end   uint32 // program length in words
	words []uint32
	recs  []decoded
	// leaders are the offsets RunFast may enter the kernel at:
	// the program entry, every JAL target and the resume point after
	// every JAL and JALR. They double as the case set of every JALR's
	// switch, which is sound because the kernel binds only at base 0.
	leaders map[uint32]bool
	heads   map[uint32]bool
	// Budget checks are hoisted: only checked heads (leaders and
	// backward control-flow targets) test the budget, against the
	// worst-case cost of the longest path to the next checked head
	// (wmemo caches the fold). Every loop still crosses a check each
	// iteration, because a cycle in the control flow needs a backward
	// edge.
	checked map[uint32]bool
	wmemo   map[uint32]uint32
	intrins map[uint32]intrinSite
	// Exit paths share the tails errOut/okOut, emitted only when
	// referenced.
	useErr bool
	useOK  bool
}

func newKernelEmit(b *bytes.Buffer, u kernelUnit) *kernelEmit {
	n := uint32(len(u.words))
	g := &kernelEmit{
		b: b, name: u.name, end: n, words: u.words, recs: make([]decoded, n),
		leaders: map[uint32]bool{0: true},
		heads:   map[uint32]bool{0: true},
		checked: map[uint32]bool{},
		wmemo:   map[uint32]uint32{},
		intrins: intrinSitesFor(u.words),
	}
	for p := uint32(0); p < n; p++ {
		d := &g.recs[p]
		predecodeWordInto(u.words[p], p, d)
		t := uint32(d.imm)
		switch {
		case d.op == uint8(OpJAL) || d.op == uint8(OpJALR):
			if d.op == uint8(OpJAL) && t < n {
				g.leaders[t] = true
			}
			if p+1 < n {
				g.leaders[p+1] = true
			}
		case isBranchOp(d.op) && t < n:
			g.heads[t] = true
		}
		if isTermOp(d.op) && p+1 < n {
			g.heads[p+1] = true
		}
		if (isBranchOp(d.op) || d.op == uint8(OpJAL)) && t <= p {
			g.checked[t] = true
		}
	}
	for l := range g.leaders {
		g.heads[l] = true
		g.checked[l] = true
	}
	return g
}

func (g *kernelEmit) f(format string, args ...any) {
	fmt.Fprintf(g.b, format+"\n", args...)
}

// reg renders a register read; r0 reads as literal zero.
func (g *kernelEmit) reg(i uint8) string {
	if i == 0 {
		return "0"
	}
	return fmt.Sprintf("r[%d]", i)
}

// blockEnd returns the index of the record ending the block entered at
// h: the first terminator, or the next block head (term=false), or the
// program end.
func (g *kernelEmit) blockEnd(h uint32) (p uint32, term bool) {
	for p = h; p < g.end; p++ {
		// The head test must precede the terminator test: a terminator
		// that is itself a block head (a branch that is also a branch
		// target) belongs to its own block, else the previous block
		// would duplicate it and bypass its budget check.
		if p > h && g.heads[p] {
			return p, false
		}
		if isTermOp(g.recs[p].op) {
			return p, true
		}
	}
	return g.end, false
}

// headWorst is the worst-case cycle cost from a head to the next budget
// check — the bound a checked head tests, proving the reference engine
// would retire every instruction on any path to the next check. Costs
// of unchecked successor heads fold in recursively; the recursion only
// follows forward edges (backward targets are checked), so it
// terminates, and JALR needs no continuation because every indirect
// target that stays in the kernel is a checked leader.
func (g *kernelEmit) headWorst(h uint32) uint32 {
	if w, ok := g.wmemo[h]; ok {
		return w
	}
	end, term := g.blockEnd(h)
	var w uint32
	for q := h; q < end; q++ {
		w += plainCost(g.recs[q].op)
	}
	cont := func(t uint32) uint32 {
		if t >= g.end || g.checked[t] {
			return 0
		}
		return g.headWorst(t)
	}
	if !term {
		if end < g.end {
			w += cont(end)
		}
		g.wmemo[h] = w
		return w
	}
	d := &g.recs[end]
	switch {
	case isBranchOp(d.op):
		taken, fall := uint32(2), uint32(1)
		if t := uint32(d.imm); t < g.end {
			taken += cont(t)
		}
		if end+1 < g.end {
			fall += cont(end + 1)
		}
		if fall > taken {
			taken = fall
		}
		w += taken
	case d.op == uint8(OpJAL):
		w += 2
		if t := uint32(d.imm); t < g.end {
			w += cont(t)
		}
	default:
		w += termWorst(d.op)
	}
	g.wmemo[h] = w
	return w
}

// exit emits a kernel exit: counters committed with the block prefix
// folded in and pc set to target, through the shared okOut tail for
// ordinary exits.
func (g *kernelEmit) exit(target uint32, cyc, ins uint32, status string) {
	g.commit(cyc, ins)
	pc := fmt.Sprintf("%d", target)
	if target > g.end {
		pc = fmt.Sprintf("%#x", target)
	}
	g.f("st.pc = %s", pc)
	if status == "stOK" {
		g.f("goto okOut")
		g.useOK = true
		return
	}
	g.f("st.cycles, st.instret = cycles, instret")
	g.f("return %s", status)
}

// commit emits the local counter update ending a block arm.
func (g *kernelEmit) commit(cyc, ins uint32) {
	if cyc != 0 || ins != 0 {
		g.f("cycles, instret = cycles+%d, instret+%d", cyc, ins)
	}
}

// plainRec emits one straight-line record at pc. cp/np are the cycle
// and instruction prefixes already accumulated in this block (the
// flush constants the slow paths need).
func (g *kernelEmit) plainRec(d *decoded, pc, cp, np uint32) {
	g.f("// %03x: %s", pc, Disassemble(g.words[pc]))
	rd := g.reg(d.rd)
	a, b := g.reg(d.rs1), g.reg(d.rs2)
	imm := uint32(d.imm)
	assign := func(format string, args ...any) {
		if d.rd == 0 {
			g.f("// r0 write elided")
			return
		}
		g.f(rd+" = "+format, args...)
	}
	switch d.op {
	case uint8(OpADD):
		assign("%s + %s", a, b)
	case uint8(OpSUB):
		assign("%s - %s", a, b)
	case uint8(OpAND):
		assign("%s & %s", a, b)
	case uint8(OpOR):
		assign("%s | %s", a, b)
	case uint8(OpXOR):
		assign("%s ^ %s", a, b)
	case uint8(OpSLL):
		assign("%s << (%s & 31)", a, b)
	case uint8(OpSRL):
		assign("%s >> (%s & 31)", a, b)
	case uint8(OpSRA):
		assign("uint32(int32(%s) >> (%s & 31))", a, b)
	case uint8(OpMUL):
		assign("%s * %s", a, b)
	case uint8(OpMULHU):
		assign("uint32(uint64(%s) * uint64(%s) >> 32)", a, b)
	case uint8(OpSLT):
		assign("b2u(int32(%s) < int32(%s))", a, b)
	case uint8(OpSLTU):
		assign("b2u(%s < %s)", a, b)
	case uint8(OpADDI):
		assign("%s + %#x", a, imm)
	case uint8(OpANDI):
		assign("%s & %#x", a, imm)
	case uint8(OpORI):
		assign("%s | %#x", a, imm)
	case uint8(OpXORI):
		assign("%s ^ %#x", a, imm)
	case uint8(OpSLLI):
		assign("%s << %d", a, imm)
	case uint8(OpSRLI):
		assign("%s >> %d", a, imm)
	case uint8(OpSRAI):
		assign("uint32(int32(%s) >> %d)", a, imm)
	case uint8(OpSLTI):
		assign("b2u(int32(%s) < %d)", a, d.imm)
	case uint8(OpSLTIU):
		assign("b2u(%s < %#x)", a, imm)
	case uint8(OpLUI):
		assign("%#x", imm)
	case uint8(OpLW):
		g.f("a = %s + %#x", a, imm)
		// The aligned in-RAM test is phrased a <= DataBytes-4 (equivalent
		// to the bus's addr+3 < DataBytes window for aligned addresses) so
		// the compiler can prove a+3 in bounds, drop the per-byte bounds
		// checks, and fuse the four byte loads into one 32-bit load.
		g.f("if a&3 == 0 && a <= DataBytes-4 {")
		if d.rd != 0 {
			g.f("%s = uint32(data[a]) | uint32(data[a+1])<<8 | uint32(data[a+2])<<16 | uint32(data[a+3])<<24", rd)
		} else {
			g.f("_ = data[a]")
		}
		g.f("} else {")
		g.f("if v, ok = st.loadSlow(c, a, %d, cycles+%d, instret+%d); !ok {", pc, cp, np)
		g.f("goto errOut")
		g.f("}")
		if d.rd != 0 {
			g.f("%s = v", rd)
		}
		g.f("}")
		g.useErr = true
	case uint8(OpLB), uint8(OpLBU):
		g.f("a = %s + %#x", a, imm)
		g.f("if a >= DataBytes {")
		g.f("_ = st.fault(c, a, %d, cycles+%d, instret+%d, errByteLoadFault)", pc, cp, np)
		g.f("goto errOut")
		g.f("}")
		g.useErr = true
		if d.rd != 0 {
			if d.op == uint8(OpLB) {
				g.f("%s = uint32(int32(int8(data[a])))", rd)
			} else {
				g.f("%s = uint32(data[a])", rd)
			}
		}
	case uint8(OpSW):
		g.f("a = %s + %#x", a, imm)
		g.f("v = %s", g.reg(d.rd))
		g.f("if a&3 == 0 && a <= DataBytes-4 {")
		g.f("data[a] = byte(v)")
		g.f("data[a+1] = byte(v >> 8)")
		g.f("data[a+2] = byte(v >> 16)")
		g.f("data[a+3] = byte(v >> 24)")
		g.f("} else if !st.storeSlow(c, a, v, %d, cycles+%d, instret+%d) {", pc, cp, np)
		g.f("goto errOut")
		g.f("}")
		g.useErr = true
	case uint8(OpSB):
		g.f("a = %s + %#x", a, imm)
		g.f("if a >= DataBytes {")
		g.f("_ = st.fault(c, a, %d, cycles+%d, instret+%d, errByteStoreFault)", pc, cp, np)
		g.f("goto errOut")
		g.f("}")
		g.useErr = true
		g.f("data[a] = byte(%s)", g.reg(d.rd))
	default:
		panic(fmt.Sprintf("plainRec: op %d", d.op))
	}
}

var branchCond = map[uint8]string{
	uint8(OpBEQ):  "%s == %s",
	uint8(OpBNE):  "%s != %s",
	uint8(OpBLT):  "int32(%s) < int32(%s)",
	uint8(OpBGE):  "int32(%s) >= int32(%s)",
	uint8(OpBLTU): "%s < %s",
	uint8(OpBGEU): "%s >= %s",
}

// termRec emits a block terminator at pc with the block's cp/np prefix
// folded into each arm.
func (g *kernelEmit) termRec(d *decoded, pc, cp, np uint32) {
	e := g.end
	g.f("// %03x: %s", pc, Disassemble(g.words[pc]))
	switch {
	case isBranchOp(d.op):
		g.f("if "+branchCond[d.op]+" {", g.reg(d.rs1), g.reg(d.rs2))
		if t := uint32(d.imm); t < e {
			g.commit(cp+2, np+1)
			g.f("goto L%d", t)
		} else {
			g.exit(t, cp+2, np+1, "stOK")
		}
		g.f("}")
		if pc+1 < e {
			g.commit(cp+1, np+1)
			return
		}
		g.exit(e, cp+1, np+1, "stOK")
	case d.op == uint8(OpJAL):
		if site, ok := g.intrins[uint32(d.imm)]; ok && d.rd == 15 && pc+1 < e {
			// Recognised SoftFloat routine: try the native mirror, which
			// commits the routine's exact dynamic cycle/instret cost and
			// full architectural effect, then resume at the return point.
			// The mirror declines (mutating nothing) when the remaining
			// budget does not strictly cover its cost, so the emulated
			// path below keeps budget expiry instruction-boundary exact.
			g.f("if ncyc, nins, iok := %s(c, st, cycles+%d, instret+%d, %d, %d); iok {",
				site.fn, cp, np, (pc+1)*4, site.lb)
			g.f("cycles, instret = ncyc, nins")
			g.f("goto L%d", pc+1)
			g.f("}")
		}
		if d.rd != 0 {
			g.f("%s = %d", g.reg(d.rd), (pc+1)*4)
		}
		if t := uint32(d.imm); t < e {
			g.commit(cp+2, np+1)
			g.f("goto L%d", t)
		} else {
			g.exit(t, cp+2, np+1, "stOK")
		}
	case d.op == uint8(OpJALR):
		g.f("v = (%s + %#x) / 4", g.reg(d.rs1), uint32(d.imm))
		if d.rd != 0 {
			g.f("%s = %d", g.reg(d.rd), (pc+1)*4)
		}
		g.commit(cp+2, np+1)
		// Dispatch the indirect target to its label when it is a leader
		// (the return of a call, or any routine entry), so calls and
		// returns never leave the kernel.
		g.f("switch v {")
		for _, l := range sortedU32(g.leaders) {
			g.f("case %d:", l)
			g.f("goto L%d", l)
		}
		g.f("default:")
		g.f("st.pc = v")
		g.f("goto okOut")
		g.f("}")
		g.useOK = true
	case d.op == uint8(OpHALT):
		g.exit(pc+1, cp+1, np+1, "stHalt")
	case d.op == xopIllegal:
		g.f("_ = st.illegal(c, %d, %d, cycles+%d, instret+%d)", uint32(d.imm), pc, cp, np)
		g.f("goto errOut")
		g.useErr = true
	default:
		panic(fmt.Sprintf("termRec: op %d", d.op))
	}
}

// emit writes the kernel's descriptor (program words and leader table)
// and its function.
func (g *kernelEmit) emit() {
	// Reachability from the leaders (the only external entries) decides
	// which heads are emitted and which labels are referenced, so the
	// generated function contains no unreachable code or unused labels.
	reach := map[uint32]bool{}
	used := map[uint32]bool{}
	var visit func(uint32)
	visit = func(h uint32) {
		if reach[h] {
			return
		}
		reach[h] = true
		p, term := g.blockEnd(h)
		if !term {
			if p < g.end {
				visit(p)
			}
			return
		}
		d := &g.recs[p]
		switch {
		case isBranchOp(d.op):
			if t := uint32(d.imm); t < g.end {
				used[t] = true
				visit(t)
			}
			if p+1 < g.end {
				visit(p + 1)
			}
		case d.op == uint8(OpJAL):
			if t := uint32(d.imm); t < g.end {
				used[t] = true
				visit(t)
			}
		}
	}
	leaders := sortedU32(g.leaders)
	for _, l := range leaders {
		used[l] = true
		visit(l)
	}

	g.f("// kernel%s runs the %s program: %d words, %d leaders.", g.name, g.name, g.end, len(leaders))
	g.f("var kernel%s = genKernel{", g.name)
	g.f("fn: run%s,", g.name)
	g.f("words: []uint32{")
	for i := uint32(0); i < g.end; i += 8 {
		line := ""
		for j := i; j < i+8 && j < g.end; j++ {
			line += fmt.Sprintf("%#08x, ", g.words[j])
		}
		g.f("%s", line)
	}
	g.f("},")
	g.f("leaders: map[uint32]uint32{")
	for i := 0; i < len(leaders); i += 8 {
		line := ""
		for _, l := range leaders[i:min(i+8, len(leaders))] {
			line += fmt.Sprintf("%d: %d, ", l, g.headWorst(l))
		}
		g.f("%s", line)
	}
	g.f("},")
	g.f("}")
	g.f("")

	g.f("func run%s(c *CPU, st *cst) int {", g.name)
	g.f("r := st.r")
	g.f("data := st.data")
	g.f("cycles, instret := st.cycles, st.instret")
	g.f("var a, v, bpc uint32")
	g.f("var ok bool")
	g.f("_, _, _, _, _ = r, data, a, v, ok")
	g.f("switch st.pc {")
	for _, l := range leaders {
		g.f("case %d:", l)
		g.f("goto L%d", l)
	}
	g.f("default:")
	g.f("return stNoEntry")
	g.f("}")

	for _, h := range sortedU32(g.heads) {
		if !reach[h] {
			continue
		}
		if used[h] {
			g.f("L%d:", h)
		}
		if g.checked[h] {
			g.f("if st.stop-cycles <= %d {", g.headWorst(h))
			g.f("bpc = %d", h)
			g.f("goto budgetOut")
			g.f("}")
		}
		end, term := g.blockEnd(h)
		var cp, np uint32
		for p := h; p < end; p++ {
			d := &g.recs[p]
			g.plainRec(d, p, cp, np)
			cp += plainCost(d.op)
			np++
		}
		if term {
			g.termRec(&g.recs[end], end, cp, np)
		} else if end < g.end {
			// Falls through into the next head, which re-checks budget.
			g.commit(cp, np)
		} else {
			// Program end without terminator: exit to the next slot.
			g.exit(g.end, cp, np, "stOK")
		}
	}

	// Shared exit tails.
	g.f("budgetOut:")
	g.f("st.pc = bpc")
	g.f("st.cycles, st.instret = cycles, instret")
	g.f("return stBudget")
	if g.useErr {
		g.f("errOut:")
		g.f("return stErr")
	}
	if g.useOK {
		g.f("okOut:")
		g.f("st.cycles, st.instret = cycles, instret")
		g.f("return stOK")
	}
	g.f("}")
	g.f("")
}

func generateKernelSource(t testing.TB) []byte {
	units := kernelUnits(t)
	var buf bytes.Buffer
	buf.WriteString("// Code generated by kernelgen_test.go (go test ./internal/sabre/ -run TestGenerateKernels -update-kernels); DO NOT EDIT.\n")
	buf.WriteString("//\n")
	buf.WriteString("// Whole-program kernels for the fast engine. See kernelgen_test.go for\n")
	buf.WriteString("// the emission rules and kernel.go for how a kernel binds.\n\n")
	buf.WriteString("package sabre\n\n")
	buf.WriteString("// kernels lists the generated kernels that matchKernel tries.\n")
	buf.WriteString("var kernels = []*genKernel{")
	for i, u := range units {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, "&kernel%s", u.name)
	}
	buf.WriteString("}\n\n")
	for _, u := range units {
		newKernelEmit(&buf, u).emit()
	}
	src, err := format.Source(buf.Bytes())
	if err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
	return src
}

// TestGenerateKernels regenerates kernels_gen.go in memory and fails if
// the committed file is stale; with -update-kernels it rewrites it.
func TestGenerateKernels(t *testing.T) {
	src := generateKernelSource(t)
	if *updateKernels {
		if err := os.WriteFile("kernels_gen.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("kernels_gen.go rewritten: %d bytes", len(src))
		return
	}
	disk, err := os.ReadFile("kernels_gen.go")
	if err != nil {
		t.Fatalf("kernels_gen.go unreadable — regenerate with `go test ./internal/sabre/ -run TestGenerateKernels -update-kernels`: %v", err)
	}
	if !bytes.Equal(disk, src) {
		t.Fatal("kernels_gen.go is stale — regenerate with `go test ./internal/sabre/ -run TestGenerateKernels -update-kernels`")
	}
}
