// Command ivmbench is the repository's end-to-end benchmark: seeded,
// closed-loop sliding-window workloads driven through the public ivm
// API from one client goroutine, with output checks, and a traced run
// that attributes a transaction's cost to the layers below. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivmbench:", err)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "ivmbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	root := ""
	err = os.MkdirAll(".bench_build", 0o755)
	if err == nil {
		root, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivmbench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	e := &runEnv{clk: newClock(), root: root}
	var res *result
	if *trace == 1 {
		e.tr = &tracer{clk: e.clk}
		res, err = runTraced(w, *seed, e, filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed)))
	} else {
		res, err = runTimed(w, *seed, *seconds, e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivmbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivmbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}
