package sabre

import (
	"fmt"
	"sort"
	"testing"
)

// TestFusionCoverageReport is a diagnostic: it executes the Kalman
// program on the reference engine, replays the PC trace against the
// fused decode array, and prints (a) the share of dynamic instructions
// covered by fused records and (b) the hottest adjacent opcode pairs
// that no pattern covers yet.
func TestFusionCoverageReport(t *testing.T) {
	prog, err := KalmanProgram()
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.Engine = EngineRef
	if err := c.LoadProgram(prog.Words); err != nil {
		t.Fatal(err)
	}
	z := make([]float32, 40)
	for i := range z {
		z[i] = 3 + float32(i%7)*0.1
	}
	SetKalmanInputs(c, 1e-6, 0.25, 100, 0, z)
	var trace []uint32
	for !c.Halted && len(trace) < 2_000_000 {
		trace = append(trace, c.PC)
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	c.predecode()

	// Static component count of a fused record.
	comp := func(op uint8) int {
		switch op {
		case xqORIADDIBNE:
			return 3
		case xqSRLISLLISLLIBNE, xqSLLIBNEBLTUSUB, xqADDISWSWSW,
			xqLWLWADDIJALR, xqLWLWLWLW, xqADDIADDIADDIJAL,
			xqBLTUSUBORIADDI, xqSWSWSWLUI, xqSWSWSWADDI,
			xqANDIADDISRLIADDI, xqSLLISLLIADDADD, xqADDIADDIADDIBLTU,
			xqSWLUIORIAND, xqADDIBLTUANDIADDI:
			return 4
		}
		return 2
	}
	fusedDyn, total := 0, 0
	pairCount := map[string]int{}
	i := 0
	for i < len(trace) {
		pc := trace[i]
		d := &c.dec[pc]
		total++
		if d.op >= uint8(numOpcodes) && d.op != xopIllegal && d.op != xopIntrin {
			// Count the components the record actually retired: the
			// trace entries that continue the sequential run. A taken
			// component branch cuts the run short.
			k := 1
			for k < comp(d.op) && i+k < len(trace) && trace[i+k] == pc+uint32(k) {
				k++
			}
			fusedDyn += k
			total += k - 1
			i += k
			continue
		}
		// Unfused: if the next dynamic instruction is the sequential
		// successor, record the missed pair.
		if i+1 < len(trace) && trace[i+1] == pc+1 {
			op1 := opTable[decOp(c.Prog[pc])].name
			op2 := opTable[decOp(c.Prog[pc+1])].name
			pairCount[op1+"+"+op2]++
		}
		i++
	}
	type kv struct {
		k string
		v int
	}
	var pairs []kv
	for k, v := range pairCount {
		pairs = append(pairs, kv{k, v})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].v > pairs[b].v })
	fmt.Printf("dynamic instructions: %d, in fused records: %d (%.1f%%)\n",
		total, fusedDyn, 100*float64(fusedDyn)/float64(total))
	for i, p := range pairs {
		if i >= 25 {
			break
		}
		fmt.Printf("%6d  %s\n", p.v, p.k)
	}
}
