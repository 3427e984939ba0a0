// Command snnmap runs the full mapping pipeline for one application on one
// architecture and prints the resulting energy, latency and SNN metrics.
// Applications, partitioners and architectures are resolved from the
// library registries (-list enumerates all three). -app accepts any
// registry spec, including the parameterized scenario generators
// ("gen:smallworld:n=512,seed=7"); -partitioner accepts a comma-separated
// list of techniques; multiple techniques share one warm pipeline session
// and run concurrently as one sweep (-parallel bounds the worker pool,
// -timeout each technique's wall clock), printing one report per technique
// in list order.
//
// Output is selected with -format: text (human-readable, default), json
// (full reports) or csv (one summary row per technique, typed header);
// -o FILE redirects any format to a file.
//
// Examples:
//
//	snnmap -list
//	snnmap -app HD -partitioner pso -crossbars 8 -size 200
//	snnmap -app synth -layers 2 -width 200 -partitioner pacman
//	snnmap -app gen:modular:n=512,plocal=0.95 -topology mesh -format json
//	snnmap -app IS -partitioner neutrams,pacman,pso -parallel 3 -format csv -o out.csv
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	snnmap "repro"
	"repro/internal/buildinfo"
	"repro/internal/hardware"
	"repro/internal/noc"
	"repro/internal/obs"
)

func main() {
	slog.SetDefault(slog.New(obs.NewLogHandler(os.Stderr, slog.LevelInfo)))
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// -h/-help: the FlagSet already printed usage; exit 0 like
		// flag.ExitOnError would.
	case errors.Is(err, errBadFlags):
		// The FlagSet already reported the offending flag and usage.
		os.Exit(2)
	default:
		slog.Error("snnmap failed", "error", err)
		os.Exit(1)
	}
}

// errBadFlags marks argument errors the FlagSet has already printed, so
// main does not report them a second time.
var errBadFlags = errors.New("invalid arguments")

// run executes the CLI against an argument vector and a stdout writer —
// the testable core main wraps (see main_test.go).
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("snnmap", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list registered applications, partitioners and architectures, then exit")
		appName  = fs.String("app", "HW", "application spec from the registry (see -list), or synth with -layers/-width")
		layers   = fs.Int("layers", 2, "synthetic app: number of layers")
		width    = fs.Int("width", 200, "synthetic app: neurons per layer")
		duration = fs.Int64("duration", 0, "characterization run length in ms (0 = app default)")
		seed     = fs.Int64("seed", 1, "seed for all stochastic components")

		tech      = fs.String("partitioner", "pso", "comma-separated techniques from the partitioner registry (see -list)")
		swarm     = fs.Int("swarm", 100, "PSO swarm size")
		iters     = fs.Int("iterations", 100, "PSO iterations")
		parallel  = fs.Int("parallel", 0, "worker pool size for the technique sweep and PSO swarm evaluation (0 = GOMAXPROCS)")
		timeout   = fs.Duration("timeout", 0, "per-technique wall clock limit, e.g. 90s (0 = none)")
		crossbars = fs.Int("crossbars", 0, "crossbar count (0 = sized from the app)")
		size      = fs.Int("size", 0, "neurons per crossbar (0 = sized from the app)")
		topology  = fs.String("topology", "tree", "architecture family from the registry (see -list)")
		aer       = fs.String("aer", "per-synapse", "AER packetization: per-synapse, per-crossbar, multicast")
		format    = fs.String("format", "text", "output format: text, json or csv")
		outPath   = fs.String("o", "", "write output to FILE instead of stdout")
		asJSON    = fs.Bool("json", false, "deprecated: alias for -format json")
		trace     = fs.Bool("trace", false, "record the run's span tree and print it to stderr after the reports")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errBadFlags, err)
	}

	if *version {
		fmt.Fprintf(stdout, "snnmap %s\n", buildinfo.Read())
		return nil
	}
	if *list {
		fmt.Fprintf(stdout, "applications:  %s\n", strings.Join(snnmap.AppNames(), ", "))
		fmt.Fprintf(stdout, "partitioners:  %s\n", strings.Join(snnmap.PartitionerNames(), ", "))
		fmt.Fprintf(stdout, "architectures: %s\n", strings.Join(snnmap.ArchNames(), ", "))
		fmt.Fprintf(stdout, "experiments:   %s (see cmd/experiments -list)\n", strings.Join(snnmap.ExperimentNames(), ", "))
		return nil
	}
	if *asJSON {
		*format = "json"
	}

	// The legacy synth flags map onto the registry's parameter-tail form.
	spec := *appName
	if spec == "synth" {
		spec = fmt.Sprintf("synth:layers=%d,width=%d", *layers, *width)
	}

	aerMode, err := hardware.ParseAERMode(*aer)
	if err != nil {
		return err
	}

	names := strings.Split(*tech, ",")
	// One parallelism budget: a single technique gives -parallel to the
	// PSO's swarm evaluation; a technique sweep gives it to the sweep's
	// worker pool and each PSO evaluates sequentially.
	psoWorkers := *parallel
	if len(names) > 1 {
		psoWorkers = 1
	}
	var techniques []snnmap.Partitioner
	for _, name := range names {
		pt, err := snnmap.NewPartitioner(strings.TrimSpace(name), snnmap.PartitionerSpec{
			Seed:       *seed,
			SwarmSize:  *swarm,
			Iterations: *iters,
			Workers:    psoWorkers,
		})
		if err != nil {
			return err
		}
		techniques = append(techniques, pt)
	}

	opts := []snnmap.Option{
		snnmap.WithWorkers(*parallel), snnmap.WithTimeout(*timeout),
	}
	var collector *traceCollector
	if *trace {
		collector = newTraceCollector()
		opts = append(opts, snnmap.WithObserver(collector))
	}
	pipe, err := snnmap.NewPipelineByName(
		spec, snnmap.AppConfig{Seed: *seed, DurationMs: *duration},
		*topology, snnmap.ArchSpec{Crossbars: *crossbars, CrossbarSize: *size, AER: aerMode},
		opts...)
	if err != nil {
		return err
	}
	reports, err := pipe.Compare(context.Background(), techniques)
	if collector != nil {
		// Print the tree even for failed runs — a trace of a run that
		// died mid-stage is exactly what the flag is for.
		collector.write(os.Stderr)
	}
	if err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, ferr := os.Create(*outPath)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		out = f
	}
	return write(out, reports, pipe.Arch(), *format)
}

// traceCollector records one span tree for a CLI run: a root span with
// one child per technique and one grandchild per pipeline stage. Compare
// interleaves stage events from concurrent techniques, so the technique
// map is mutex-guarded.
type traceCollector struct {
	rec  *obs.Recorder
	root *obs.Span

	mu    sync.Mutex
	techs map[string]*obs.Span
}

func newTraceCollector() *traceCollector {
	rec := obs.NewRecorder(0)
	return &traceCollector{rec: rec, root: rec.StartRoot("snnmap"), techs: map[string]*obs.Span{}}
}

// OnStage implements snnmap.Observer.
func (t *traceCollector) OnStage(ev snnmap.StageEvent) {
	end := time.Now()
	t.mu.Lock()
	tech := t.techs[ev.Technique]
	if tech == nil {
		// First event for this technique: its stage began when the
		// technique did, so backdating by the stage's elapsed time puts
		// the technique span's start where the run actually started.
		tech = t.root.StartChildAt("technique", end.Add(-ev.Elapsed))
		tech.SetAttr(obs.String("technique", ev.Technique))
		t.techs[ev.Technique] = tech
	}
	t.mu.Unlock()
	sp := tech.StartChildAt(ev.Stage.String(), end.Add(-ev.Elapsed))
	switch {
	case ev.Partition != nil:
		sp.SetAttr(obs.Int64("cost", ev.Partition.Cost))
	case ev.NoC != nil:
		sp.SetAttr(
			obs.Int64("injected", ev.NoC.Stats.Injected),
			obs.Int64("delivered", ev.NoC.Stats.Delivered),
			obs.Int64("cycles", ev.NoC.Stats.Cycles),
		)
	case ev.Metrics != nil:
		sp.SetAttr(
			obs.Int64("delivered", ev.Metrics.Delivered),
			obs.Float("avg_latency_cycles", ev.Metrics.AvgLatencyCycles),
			obs.Float("isi_avg_cycles", ev.Metrics.ISIAvgCycles),
		)
	}
	sp.EndAt(end)
}

// write closes the open spans and renders the tree as indented text.
func (t *traceCollector) write(w io.Writer) {
	t.mu.Lock()
	for _, sp := range t.techs {
		sp.End()
	}
	t.mu.Unlock()
	t.root.End()
	obs.BuildTree(t.root.TraceIDString(), t.rec.Nodes(t.root.Context().TraceID)).WriteText(w)
}

func write(w io.Writer, reports []*snnmap.Report, arch snnmap.Arch, format string) error {
	switch format {
	case "text":
		for i, rep := range reports {
			if i > 0 {
				fmt.Fprintln(w)
			}
			printReport(w, rep, arch)
		}
		return nil
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if len(reports) == 1 {
			return enc.Encode(reports[0])
		}
		return enc.Encode(reports)
	case "csv":
		t, err := snnmap.NewReportTable(reports...)
		if err != nil {
			return err
		}
		return t.WriteCSV(w)
	default:
		return fmt.Errorf("unknown format %q (text, json, csv)", format)
	}
}

func printReport(w io.Writer, rep *snnmap.Report, arch snnmap.Arch) {
	fmt.Fprintf(w, "application        %s (%d neurons, %d synapses)\n", rep.AppName, rep.Neurons, rep.Synapses)
	fmt.Fprintf(w, "architecture       %s: %d crossbars × %d neurons, %s interconnect, AER %s\n",
		rep.ArchName, arch.Crossbars, arch.CrossbarSize, kindName(arch.Interconnect), arch.AER)
	fmt.Fprintf(w, "technique          %s\n", rep.Technique)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "local synapses     %d\n", rep.LocalSynapseCount)
	fmt.Fprintf(w, "global synapses    %d\n", rep.GlobalSynapseCount)
	fmt.Fprintf(w, "fitness F          %d spikes on interconnect (Eq. 8)\n", rep.GlobalTraffic)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "local energy       %.2f µJ (%d synaptic events)\n", rep.LocalEnergyPJ/1e6, rep.LocalEvents)
	fmt.Fprintf(w, "global energy      %.2f µJ (%d packets, %d hops)\n", rep.GlobalEnergyPJ/1e6, rep.NoC.Injected, rep.NoC.PacketHops)
	fmt.Fprintf(w, "total energy       %.2f µJ\n", rep.TotalEnergyPJ/1e6)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "ISI distortion     %.1f cycles avg, %d max\n", rep.Metrics.ISIAvgCycles, rep.Metrics.ISIMaxCycles)
	fmt.Fprintf(w, "disorder count     %.2f%% of %d spikes\n", rep.Metrics.DisorderFrac*100, rep.Metrics.Delivered)
	fmt.Fprintf(w, "throughput         %.2f AER/ms\n", rep.Metrics.ThroughputPerMs)
	fmt.Fprintf(w, "latency            %.1f cycles avg, %d max\n", rep.Metrics.AvgLatencyCycles, rep.Metrics.MaxLatencyCycles)
}

func kindName(k noc.Kind) string { return k.String() }
