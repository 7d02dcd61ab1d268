// Command alsbench is the repository benchmark. It drives the program
// from outside, through its public entry points, on one of three
// workloads:
//
//	flow_paper    one DCGWO flow at a time at the paper's shape (c6288,
//	              N=30, Imax=20, 131072 vectors) via als.NewSession/Run
//	sweep_table2  TABLE II at paper scale (7 ER circuits x 5 methods)
//	              via exp.RunJobsContext
//	service_v2    an alsd process under an open-loop Poisson schedule of
//	              POST /v2/jobs, half fresh specs and half repeats
//
// Every run checks the program's outputs and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics. With -trace 0 the metrics are the end-to-end set
// (tracing off); with -trace 1 they are the per-layer set, derived from
// spans the run records around each layer call and writes, at exit, as a
// JSONL file cmd/tracecat reads. METRICS.md defines every metric.
//
// Usage (from the repository root, after building alsd):
//
//	alsbench -workload flow_paper -seed 1 -seconds 20 -trace 0 -alsd path/to/alsd -out .bench_build
//
// alsbench/run.sh builds both binaries and runs this command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // tiny shape: smoke tests only, never reported
	alsd     string // alsd binary (service_v2)
	out      string // directory for scratch files and the span export
}

// workloads maps each workload name onto its runner. A runner measures,
// checks and fills a report; it returns an error only when the run could
// not be carried out at all.
var workloads = map[string]func(context.Context, config, *report) error{
	"flow_paper":   runFlowPaper,
	"sweep_table2": runSweepTable2,
	"service_v2":   runServiceV2,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(argv, stderr)
	if err != nil {
		return 2
	}
	rep := newReport(cfg)
	if err := workloads[cfg.workload](ctx, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "alsbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := rep.write(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "alsbench: %v\n", err)
		return 1
	}
	return 0
}

func parseFlags(argv []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("alsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "flow_paper, sweep_table2 or service_v2")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.BoolVar(&cfg.tiny, "tiny", false, "run the workload at a tiny shape (smoke tests)")
	fs.StringVar(&cfg.alsd, "alsd", "", "alsd binary driven by service_v2")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch files and span exports")
	if err := fs.Parse(argv); err != nil {
		return cfg, err
	}
	var errs []error
	if _, ok := workloads[cfg.workload]; !ok {
		errs = append(errs, fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if traceFlag != 0 && traceFlag != 1 {
		errs = append(errs, fmt.Errorf("-trace must be 0 or 1, not %d", traceFlag))
	}
	if cfg.seconds <= 0 {
		errs = append(errs, fmt.Errorf("-seconds must be positive"))
	}
	if cfg.workload == "service_v2" && cfg.alsd == "" {
		errs = append(errs, fmt.Errorf("service_v2 needs -alsd"))
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(stderr, "alsbench: %v\n", err)
		return cfg, err
	}
	cfg.trace = traceFlag == 1
	out, err := filepath.Abs(cfg.out)
	if err == nil {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "alsbench: -out: %v\n", err)
		return cfg, err
	}
	cfg.out = out
	return cfg, nil
}
