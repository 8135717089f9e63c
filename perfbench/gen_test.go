package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"

	"boresight/internal/fleet"
	"boresight/internal/sabre"
)

// inputBytes serialises everything the generators produce for one seed:
// both fleet streams of both mixes, every Sabre program and input set,
// and the distorted video frame.
func inputBytes(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, tr := range []traffic{mixedTraffic, tinyTraffic} {
		var b []byte
		bg, ig := newBulkGen(tr, seed), newInteractiveGen(tr, seed)
		for i := 0; i < 300; i++ {
			b = fleet.AppendScenario(b, bg.bulk())
		}
		for i := 0; i < 50; i++ {
			for _, sp := range ig.request() {
				b = fleet.AppendScenario(b, sp)
			}
		}
		out["specs "+tr.name] = b
	}
	var b []byte
	for _, p := range newPrograms(seed) {
		prog, err := p.assemble()
		if err != nil {
			t.Fatalf("assemble %s: %v", p.name, err)
		}
		c := sabre.New()
		if err := c.LoadProgram(prog.Words); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.inputs; i++ {
			p.load(c, i)
		}
		var prg []byte
		for _, w := range prog.Words {
			prg = binary.LittleEndian.AppendUint32(prg, w)
		}
		out["program "+p.name] = prg
		b = append(b, c.Data...)
	}
	out["program inputs"] = b
	b = nil
	for _, px := range genVideo(seed).distorted.Pix {
		b = binary.LittleEndian.AppendUint32(b, uint32(px))
	}
	out["frame"] = b
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, again, other := inputBytes(t, 7), inputBytes(t, 7), inputBytes(t, 8)
	for name, want := range a {
		if !bytes.Equal(again[name], want) {
			t.Errorf("%s: the same seed gave different bytes", name)
		}
		// The bundled programs are fixed; everything else follows the seed.
		if name != "program kalman" && name != "program fx" && bytes.Equal(other[name], want) {
			t.Errorf("%s: a different seed gave identical bytes", name)
		}
	}
}

// TestRuntimeProgramsFromTemplates holds that the runtime class is
// assembled from the benchmark's templates, never from a bundled source.
func TestRuntimeProgramsFromTemplates(t *testing.T) {
	var bundled [][]uint32
	for _, f := range []func() (*sabre.Program, error){sabre.KalmanProgram, sabre.FxBoresightProgram} {
		p, err := f()
		if err != nil {
			t.Fatal(err)
		}
		bundled = append(bundled, p.Words)
	}
	ip, fp := genIntProgram(3, 1), genFloatProgram(3, 1)
	for _, src := range []string{ip.src, fp.src + sabre.Library()} {
		p, err := sabre.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range bundled {
			if len(w) >= len(p.Words) && equalWords(w[:len(p.Words)], p.Words) {
				t.Fatal("a runtime program matches a bundled program")
			}
		}
	}
}

func equalWords(a, b []uint32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metrics
// this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d = %s, want %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d = %+v, want %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) || (bounded && !(*m.Bound > 0 && *m.Bound <= 0.25)) {
				t.Errorf("%s %s: bad bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	var setup float64
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range bj.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}
