package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"greencloud/internal/emul"
	"greencloud/internal/plan"
	"greencloud/internal/vm"
)

// The emul-fleet workload: batch emul.Runner.Run on one reused Runner over
// fleetDCs datacenters × fleetVMs VMs for a 24-hour day starting on a
// summer day, with migration parallelism at nproc.
const (
	fleetDCs     = 4
	fleetVMs     = 1000
	fleetHours   = 24
	fleetSetups  = 5        // set-ups timed per run; setup_s is their median
	fleetStart   = 24 * 172 // the day starts at midnight of this day of the year
	fleetMinDays = 6
	// fleetSeqShare is the share of the measured days run sequentially
	// (Parallelism 1), the single-worker baseline.
	fleetSeqShare = 0.35
	// fleetDaySeconds is roughly how long one day takes on a 2-core host;
	// a run emulates seconds/fleetDaySeconds days, a fixed amount of work
	// for a given --seconds.
	fleetDaySeconds = 1.3
)

// fleetGated maps BENCHMARK.json's end-to-end metrics to emul-fleet's.
var fleetGated = map[string]string{
	"setup_s":     "setup_s",
	"peak_rss_mb": "peak_rss_mb",
	"main_p50_ms": "hour_p50_ms",
	"side_p50_ms": "seq_hour_p50_ms",
	"cost_usd":    "brown_cost_usd",
}

// fleetConfig is the run's input: the default trace's site selection scaled
// to fleetDCs × fleetVMs, no LP time budget (a batch run never degrades).
// The fleet is homogeneous, so the seed varies only the VM names (and with
// them the GDFS paths and map layouts): every seed emulates the same
// physics, which keeps runs on different seeds comparable.
func fleetConfig(seed int64, parallelism int) (emul.Config, error) {
	cfg, _, err := plan.TraceSpec{Datacenters: fleetDCs, VMs: fleetVMs, StartHour: fleetStart}.Build()
	if err != nil {
		return cfg, err
	}
	prefix := fmt.Sprintf("hpc%x", rand.New(rand.NewSource(seed)).Uint32())
	cfg.VMs = vm.NewHPCFleet(prefix, fleetVMs)
	cfg.Hours = fleetHours
	cfg.LPTimeout = 0
	cfg.Parallelism = parallelism
	return cfg, nil
}

func runFleet(rc *runCtx) (*report, error) {
	rep := newReport()
	par := runtime.NumCPU()
	var setups []float64
	var r *emul.Runner
	var parCfg emul.Config
	for i := 0; i < fleetSetups; i++ {
		start := time.Now()
		var err error
		if parCfg, err = fleetConfig(rc.seed, par); err != nil {
			return nil, err
		}
		if r, err = emul.NewRunner(parCfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", medianOf(setups), "s", len(setups))

	days := fleetBatch
	if rc.tr != nil {
		days = fleetStepped
	}
	first, err := days(rc, r, rep)
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	rep.set("green_fraction", first.GreenFraction, "ratio", 1)
	rep.set("brown_cost_usd", brownCostUSD(first, cfgPrices(parCfg)), "USD", 1)

	// The single-worker baseline: days at Parallelism 1 on a second Runner,
	// timed after a warm-up day, each of which must equal the parallel day.
	cfg, err := fleetConfig(rc.seed, 1)
	if err != nil {
		return nil, err
	}
	seqRunner, err := emul.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	var seq samples
	seqDays := int(math.Ceil(fleetSeqShare * rc.seconds / fleetDaySeconds))
	if seqDays < fleetMinDays {
		seqDays = fleetMinDays
	}
	for i := -1; i < seqDays; i++ {
		start := time.Now()
		res, err := seqRunner.Run()
		d := time.Since(start)
		rep.attempted++
		if err != nil {
			return nil, err
		}
		if i >= 0 {
			seq = append(seq, float64(d)/1e6/fleetHours)
		}
		if !sameResult(first, res) {
			rep.failCheck("emul-fleet: a Parallelism 1 Run differs from the parallel one")
		}
	}
	rep.set("seq_hour_p50_ms", seq.median(), "ms", len(seq))
	if first.Migrations == 0 {
		rep.failCheck("emul-fleet: the day migrated no VM")
	}
	return rep, nil
}

// cfgPrices maps each datacenter of the runner's configuration to its grid
// price in USD/kWh.
func cfgPrices(cfg emul.Config) map[string]float64 {
	out := make(map[string]float64, len(cfg.Datacenters))
	for _, dc := range cfg.Datacenters {
		out[dc.Name] = dc.Site.GridPriceUSDPerKWh
	}
	return out
}

// brownCostUSD is what the run's brown energy costs at each site's grid
// price (one-hour records: kW == kWh).
func brownCostUSD(res *emul.Result, price map[string]float64) float64 {
	total := 0.0
	for _, rec := range res.Trace {
		total += rec.BrownKW * price[rec.Datacenter]
	}
	return total
}

// fleetBatch times whole-day Runs on the reused Runner; every day must
// equal the first, which is also the check that a second Run on a reused
// Runner is bit-identical to the first.
func fleetBatch(rc *runCtx, r *emul.Runner, rep *report) (*emul.Result, error) {
	var days samples
	var first *emul.Result
	var total time.Duration
	nDays := int(math.Ceil((1 - fleetSeqShare) * rc.seconds / fleetDaySeconds))
	if nDays < fleetMinDays {
		nDays = fleetMinDays
	}
	// The first day is a warm-up: it grows the heap and fills the
	// Runner's scratch, which a reused Runner pays once.
	for day := -1; day < nDays; day++ {
		start := time.Now()
		res, err := r.Run()
		d := time.Since(start)
		rep.attempted++
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		} else if !sameResult(first, res) {
			rep.failCheck("emul-fleet: day %d differs from the first", day)
		}
		if day >= 0 {
			total += d
			days.add(d)
		}
	}
	hours := float64(len(days) * fleetHours)
	rep.set("emul_hours_per_s", hours/total.Seconds(), "1/s", len(days))
	perHour := make(samples, len(days))
	for i, d := range days {
		perHour[i] = d / fleetHours
	}
	rep.set("hour_p50_ms", perHour.median(), "ms", len(days))
	rep.sum = append(rep.sum, fmt.Sprintf("%d days of %d hours; day p50 %.4g ms, max %.4g ms; days %.0f",
		len(days), fleetHours, days.median(), days.quantile(1), days))
	return first, nil
}

// fleetStepped is the traced run: each day driven as Start + Step (which
// the emul tests pin identical to Run), with a second Runner replaying each
// hour's moves to time execution without planning.
func fleetStepped(rc *runCtx, r *emul.Runner, rep *report) (*emul.Result, error) {
	cfg, err := fleetConfig(rc.seed, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	replayer, err := emul.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	tr := rc.tr
	var first *emul.Result
	var pivots, migrations, migratedMB, allocMB samples
	var gc []float64
	var total time.Duration
	// A traced day also replays every hour, so it takes about twice as long.
	nDays := int(math.Ceil(rc.seconds / (2 * fleetDaySeconds)))
	if nDays < 2 {
		nDays = 2
	}
	for day := 0; day < nDays; day++ {
		start := time.Now()
		before := readRuntime()
		if err := r.Start(); err != nil {
			return nil, err
		}
		if err := replayer.Start(); err != nil {
			return nil, err
		}
		res := &emul.Result{}
		for h := 0; h < fleetHours; h++ {
			id := "d" + strconv.Itoa(day) + ".h" + strconv.Itoa(h)
			a0 := readRuntime()
			span := tr.begin("emul.step", id, -1)
			tick, err := r.Step()
			tr.end(span)
			a1 := readRuntime()
			rep.attempted++
			if err != nil {
				return nil, err
			}
			tr.record("sched.round", id, span, time.Duration(tick.SchedulerNanos))
			if tick.Degraded {
				rep.failed++
			}
			allocMB = append(allocMB, float64(a1.allocBytes-a0.allocBytes)/(1<<20))
			pivots = append(pivots, float64(tick.LPStats.Pivots))
			migrations = append(migrations, float64(tick.Migrations))
			var mb float64
			for _, rec := range tick.Records {
				mb += float64(rec.MigratedBytes) / 1e6
			}
			migratedMB = append(migratedMB, mb)
			res.Accumulate(tick)
			records := wallClockFree(tick.Records)
			xspan := tr.begin("emul.execute", id, -1)
			replayed, err := replayer.Replay(tick.Moves)
			tr.end(xspan)
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(records, wallClockFree(replayed.Records)) {
				rep.failCheck("emul-fleet: replaying hour %s's moves gives other records", id)
			}
		}
		if res.TotalDemandKWh > 0 {
			res.GreenFraction = res.TotalGreenKWh / res.TotalDemandKWh
		}
		gc = append(gc, gcShare(before, readRuntime()))
		total += time.Since(start)
		if first == nil {
			first = res
		}
	}
	// The stepped day must equal a batch Run (checked by the caller too).
	batch, err := r.Run()
	if err != nil {
		return nil, err
	}
	if !sameResult(first, batch) {
		rep.failCheck("emul-fleet: Start + Step differs from Run")
	}
	step := tr.byName("emul.step")
	sched := tr.byName("sched.round")
	exec := tr.byName("emul.execute")
	n := len(step)
	rep.layer("emul.step_ms", step.median(), "ms", n)
	rep.layer("sched.round_ms", sched.median(), "ms", len(sched))
	rep.layer("emul.execute_ms", exec.median(), "ms", len(exec))
	rep.layer("emul.migrations", migrations.mean(), "count", n)
	rep.layer("emul.migrated_mb", migratedMB.mean(), "MB", n)
	rep.layer("lp.pivots", pivots.mean(), "count", n)
	rep.layer("runtime.alloc_mb", allocMB.mean(), "MB", n)
	rep.layer("runtime.gc_cpu_share", medianOf(gc), "ratio", len(gc))
	hours := float64(n)
	rep.set("emul_hours_per_s", hours/total.Seconds(), "1/s", n)
	rep.set("hour_p50_ms", step.median(), "ms", n)
	return first, nil
}

// sameResult compares two emulation results, ignoring the wall-clock
// scheduler timings.
func sameResult(a, b *emul.Result) bool {
	x, y := *a, *b
	x.AvgScheduleNanos, y.AvgScheduleNanos = 0, 0
	x.Trace, y.Trace = wallClockFree(a.Trace), wallClockFree(b.Trace)
	return reflect.DeepEqual(x, y)
}
