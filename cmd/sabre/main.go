// Command sabre is the toolchain front end for the Sabre soft core:
// assemble source files, disassemble binaries, run programs on the
// emulator, and exercise the bundled SoftFloat and Kalman workloads.
//
// Usage:
//
//	sabre asm FILE.s            assemble; print words as hex
//	sabre run FILE.s            assemble and execute with the standard
//	                            peripherals; print registers and cycles
//	sabre disasm FILE.s         assemble then disassemble (round trip)
//	sabre softfloat             cycle-cost table for the float library
//	sabre kalman [-n 100]       scalar Kalman demo on the core
//	sabre fxboresight [-n 800]  the full fixed-point fusion filter on
//	                            the core (integer-only, no float library)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"boresight/internal/fxcore"
	"boresight/internal/geom"
	"boresight/internal/sabre"
	"boresight/internal/traj"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "asm":
		err = cmdAsm(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "disasm":
		err = cmdDisasm(os.Args[2:])
	case "softfloat":
		err = cmdSoftfloat(os.Args[2:])
	case "kalman":
		err = cmdKalman(os.Args[2:])
	case "fxboresight":
		err = cmdFxBoresight(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sabre:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sabre asm|run|disasm|softfloat|kalman|fxboresight ...")
}

// engineFlag registers the common -engine flag; parse the FlagSet, then
// call the returned function for the selected engine.
func engineFlag(fs *flag.FlagSet) func() (sabre.Engine, error) {
	name := fs.String("engine", "fast", "execution engine: ref (decode per step) or fast (predecoded+fused, with SoftFloat mirrors and generated kernels)")
	return func() (sabre.Engine, error) { return sabre.ParseEngine(*name) }
}

// compiledSuffix formats the fast engine's intrinsic-call count and
// its kernel and interpreted dispatch counts for the MIPS summary line
// ("" for the reference engine).
func compiledSuffix(s *sabre.CompiledStats) string {
	if s == nil {
		return ""
	}
	return "; " + s.Summary()
}

func assembleFile(path string) (*sabre.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return sabre.Assemble(string(src))
}

func cmdAsm(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("asm needs exactly one source file")
	}
	prog, err := assembleFile(args[0])
	if err != nil {
		return err
	}
	for i, w := range prog.Words {
		fmt.Printf("%04x: %08x\n", i, w)
	}
	fmt.Fprintf(os.Stderr, "%d words, %d symbols\n", len(prog.Words), len(prog.Symbols))
	return nil
}

func cmdDisasm(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("disasm needs exactly one source file")
	}
	prog, err := assembleFile(args[0])
	if err != nil {
		return err
	}
	// Invert the symbol table for labelling.
	byAddr := make(map[uint32][]string)
	for name, addr := range prog.Symbols {
		byAddr[addr] = append(byAddr[addr], name)
	}
	for i, w := range prog.Words {
		for _, name := range byAddr[uint32(i)] {
			fmt.Printf("%s:\n", name)
		}
		fmt.Printf("%04x:  %08x  %s\n", i, w, sabre.Disassemble(w))
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	maxCycles := fs.Uint64("max-cycles", 10_000_000, "cycle budget")
	engine := engineFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := engine()
	if err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run needs exactly one source file")
	}
	prog, err := assembleFile(fs.Arg(0))
	if err != nil {
		return err
	}
	c := sabre.New()
	c.Engine = eng
	dbg := &sabre.Debug{}
	c.Map(sabre.LEDSBase, &sabre.LEDs{})
	c.Map(sabre.SwitchBase, &sabre.Switches{})
	c.Map(sabre.TScreenBase, &sabre.TouchScreen{})
	c.Map(sabre.GUIBase, &sabre.GUI{})
	c.Map(sabre.Serial1Base, &sabre.UART{})
	c.Map(sabre.Serial2Base, &sabre.UART{})
	c.Map(sabre.AnglesBase, &sabre.Control{})
	c.Map(sabre.CounterBase, &sabre.Counter{CPU: c})
	c.Map(sabre.DebugBase, dbg)
	if err := c.LoadProgram(prog.Words); err != nil {
		return err
	}
	var cs *sabre.CompiledStats
	if eng != sabre.EngineRef {
		cs = &sabre.CompiledStats{}
		c.CollectCompiledStats(cs)
	}
	t0 := time.Now()
	cycles, err := c.Run(*maxCycles)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("after %d cycles: %w", cycles, err)
	}
	fmt.Printf("halted after %d cycles, %d instructions\n", c.Cycles, c.Instret)
	if wall > 0 {
		fmt.Printf("engine %s: %.1f MIPS host throughput%s\n",
			eng, float64(c.Instret)/wall/1e6, compiledSuffix(cs))
	}
	for i := 0; i < 16; i += 4 {
		fmt.Printf("r%-2d=%08x  r%-2d=%08x  r%-2d=%08x  r%-2d=%08x\n",
			i, c.R[i], i+1, c.R[i+1], i+2, c.R[i+2], i+3, c.R[i+3])
	}
	if len(dbg.Out) > 0 {
		fmt.Printf("console: %q\n", dbg.Out)
	}
	if len(dbg.Words) > 0 {
		fmt.Printf("debug words: %v\n", dbg.Words)
	}
	return nil
}

func cmdSoftfloat(args []string) error {
	fs := flag.NewFlagSet("softfloat", flag.ContinueOnError)
	engine := engineFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := engine()
	if err != nil {
		return err
	}
	pairs := make([][2]uint32, 256)
	for i := range pairs {
		pairs[i] = [2]uint32{0x3FC00000 + uint32(i)<<8, 0x40200000 - uint32(i)<<7}
	}
	fmt.Println("SoftFloat on the Sabre core (no FPU): cycles per operation")
	fmt.Println("(measured includes the batch driver loop; model is the native")
	fmt.Println(" mirror's call..return cost, averaged over the same operands)")
	for _, routine := range []string{
		"f32_add", "f32_sub", "f32_mul", "f32_div", "f32_sqrt",
		"f32_from_i32", "f32_to_i32", "f32_cmp_lt",
	} {
		_, perOp, err := sabre.RunBatchEngine(eng, routine, pairs)
		if err != nil {
			return err
		}
		fmt.Printf("%14s  %7.1f cycles measured%s\n", routine, perOp, costModelCol(routine, pairs))
	}
	return nil
}

// costModelCol averages the routine's mirrored cost over the batch
// operands; empty when the routine has no mirror.
func costModelCol(routine string, pairs [][2]uint32) string {
	var sum uint64
	for _, p := range pairs {
		_, cyc, _, ok := sabre.RoutineCost(routine, p[0], p[1])
		if !ok {
			return ""
		}
		sum += uint64(cyc)
	}
	return fmt.Sprintf("  %7.1f model", float64(sum)/float64(len(pairs)))
}

func cmdKalman(args []string) error {
	fs := flag.NewFlagSet("kalman", flag.ContinueOnError)
	n := fs.Int("n", 100, "number of measurements")
	engine := engineFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := engine()
	if err != nil {
		return err
	}
	z := make([]float32, *n)
	truth := float32(3.25)
	for i := range z {
		// Deterministic pseudo-noise so the demo is reproducible.
		z[i] = truth + float32((i*2654435761)%1000-500)/2000
	}
	res, err := sabre.RunKalmanEngine(eng, 1e-6, 0.25, 100, 0, z)
	if err != nil {
		return err
	}
	fmt.Printf("scalar Kalman filter on the Sabre core, %d updates\n", *n)
	fmt.Printf("final estimate %.5f (truth %.5f), final P %.3g\n",
		res.Estimates[len(res.Estimates)-1], truth, res.FinalP)
	fmt.Printf("%.0f cycles/update, %d instructions total\n",
		res.CyclesPerUpdate, res.Instructions)
	if res.WallSeconds > 0 {
		fmt.Printf("engine %s: %.1f MIPS host throughput%s\n",
			eng, float64(res.Instructions)/res.WallSeconds/1e6, compiledSuffix(res.Compiled))
	}
	fmt.Printf("at 25 MHz: %.0f updates/s available (sensors need 100/s)\n",
		25e6/res.CyclesPerUpdate)
	return nil
}

func cmdFxBoresight(args []string) error {
	fs := flag.NewFlagSet("fxboresight", flag.ContinueOnError)
	n := fs.Int("n", 800, "fusion epochs")
	engine := engineFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := engine()
	if err != nil {
		return err
	}
	// A tilting-platform scenario with a 1.5/-2/1 degree misalignment.
	mis := geom.EulerDeg(1.5, -2.0, 1.0)
	poses := []geom.Euler{
		geom.EulerDeg(0, 0, 0),
		geom.EulerDeg(0, 20, 0),
		geom.EulerDeg(0, -20, 0),
		geom.EulerDeg(20, 0, 0),
	}
	dwell := *n / len(poses)
	if dwell < 1 {
		dwell = 1
	}
	inputs := make([]sabre.FxBoresightInput, *n)
	for i := range inputs {
		att := poses[(i/dwell)%len(poses)]
		f := (traj.StaticPose{Attitude: att, Dur: 1}).At(0).SpecificForce()
		fs := mis.DCM().T().Apply(f)
		// Deterministic pseudo-noise keeps the demo reproducible.
		nx := float64((i*2654435761)%1000-500) / 50000
		ny := float64((i*40503)%1000-500) / 50000
		inputs[i] = sabre.FxBoresightInput{F: f, AX: fs[0] + nx, AY: fs[1] + ny}
	}
	res, err := sabre.RunFxBoresightEngine(eng, fxcore.DefaultConfig(), 0.01, inputs)
	if err != nil {
		return err
	}
	r, p, y := res.Final.Deg()
	fmt.Printf("full boresight fusion filter on the Sabre core, integer-only (S8.24)\n")
	fmt.Printf("epochs:            %d\n", *n)
	fmt.Printf("estimate:          roll %+.3f°, pitch %+.3f°, yaw %+.3f° (true +1.5, -2.0, +1.0)\n", r, p, y)
	fmt.Printf("cycles per update: %.0f (%.0f updates/s at 25 MHz; sensors need 100/s)\n",
		res.CyclesPerUpdate, 25e6/res.CyclesPerUpdate)
	if res.WallSeconds > 0 {
		fmt.Printf("engine %s: %.1f MIPS host throughput%s\n",
			eng, float64(res.Instructions)/res.WallSeconds/1e6, compiledSuffix(res.Compiled))
	}
	return nil
}
