package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"greencloud/internal/core"
	"greencloud/internal/energy"
	"greencloud/placement"
)

// The siting workload: a closed-loop capacity planner sending a seeded
// stream of Place requests, drawn from the paper's sweep grid, to one
// catalog; one request in sitingExactEvery is also validated by the exact
// MILP on a sitingSubset-site subset of the catalog.  Which grid point is
// validated in which pass over the grid, and on which subset, does not
// depend on the seed, so every run makes the same exact solves (the seed
// only orders them) and exact_p50_ms compares like with like.
const (
	sitingSites      = 160 // catalog size
	sitingCatalog    = 7   // catalog seed: one fixed catalog for every run
	sitingDays       = 1   // representative days (keeps the exact MILP tractable)
	sitingSetups     = 5
	sitingExactEvery = 10
	sitingSubset     = 3
	sitingFilterKeep = 60
	sitingIterations = 150
	sitingExactNodes = 50
	sitingMinCycles  = 2
	// sitingCycleSeconds is roughly how long one cycle through the grid
	// takes on a 2-core host; a run has seconds/sitingCycleSeconds cycles,
	// a fixed amount of work for a given --seconds.
	sitingCycleSeconds = 0.5
)

// sitingGated maps BENCHMARK.json's end-to-end metrics to siting's.
var sitingGated = map[string]string{
	"setup_s":     "setup_s",
	"peak_rss_mb": "peak_rss_mb",
	"main_p50_ms": "siting_p50_ms",
	"side_p50_ms": "exact_p50_ms",
	"cost_usd":    "siting_cost_usd",
}

// The paper's sweep grid: capacity × green target × storage.
var (
	sitingCapacitiesMW = []float64{10, 20, 30, 40, 50}
	sitingGreen        = []float64{0, 0.25, 0.5, 0.75, 1}
	sitingStorage      = []placement.StorageMode{placement.NetMetering, placement.Batteries, placement.NoStorage}
)

type sitingRequest struct {
	req         placement.Request
	seed        int64
	grid, cycle int // grid point index, and which pass over the grid
}

// spec is the core.Spec placement derives from the request.
func (r sitingRequest) spec() core.Spec {
	spec := core.DefaultSpec()
	spec.TotalCapacityKW = r.req.CapacityMW * 1000
	spec.MinGreenFraction = r.req.GreenFraction
	spec.Storage = map[placement.StorageMode]energy.StorageMode{
		placement.NetMetering: energy.NetMetering,
		placement.Batteries:   energy.Batteries,
		placement.NoStorage:   energy.NoStorage,
	}[r.req.Storage]
	return spec
}

func (r sitingRequest) String() string {
	return fmt.Sprintf("%g MW, green %g, storage %d", r.req.CapacityMW, r.req.GreenFraction, r.req.Storage)
}

// sitingStream is the seeded request stream: whole shuffled cycles of the
// grid, each request with its own search seed.
func sitingStream(seed int64, cycles int) []sitingRequest {
	var grid []placement.Request
	for _, st := range sitingStorage {
		for _, g := range sitingGreen {
			for _, c := range sitingCapacitiesMW {
				grid = append(grid, placement.Request{CapacityMW: c, GreenFraction: g, Storage: st})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []sitingRequest
	for c := 0; c < cycles; c++ {
		for _, i := range rng.Perm(len(grid)) {
			out = append(out, sitingRequest{req: grid[i], seed: rng.Int63(), grid: i, cycle: c})
		}
	}
	return out
}

func runSiting(rc *runCtx) (*report, error) {
	rep := newReport()
	var setups []float64
	var cat *placement.Catalog
	for i := 0; i < sitingSetups; i++ {
		start := time.Now()
		var err error
		cat, err = placement.NewCatalog(placement.CatalogOptions{Locations: sitingSites, Seed: sitingCatalog, RepresentativeDays: sitingDays})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", medianOf(setups), "s", len(setups))
	inner := cat.Internal()
	byName := make(map[string]int, inner.Len())
	for _, s := range inner.Sites() {
		byName[s.Name] = s.ID
	}

	cycles := int(math.Ceil(rc.seconds / sitingCycleSeconds))
	if cycles < sitingMinCycles {
		cycles = sitingMinCycles
	}
	stream := sitingStream(rc.seed, cycles)
	chains := runtime.NumCPU()
	tr := rc.tr

	var place, exactMs, evalUs samples
	var nodes, pivots, refactors, presolve, cold samples
	var costs, ratios []float64
	var exactFailed, uncompared int
	var loop time.Duration
	for i, sr := range stream {
		id := "q" + strconv.Itoa(i)
		budget := placement.SearchBudget{FilterKeep: sitingFilterKeep, Chains: chains, Iterations: sitingIterations, Seed: sr.seed}
		spec := sr.spec()
		rep.attempted++
		start := time.Now()
		var monthly, green float64
		var cands []core.Candidate
		var err error
		if tr == nil {
			var sol *placement.Solution
			sol, err = cat.Place(sr.req, budget)
			if err == nil {
				monthly, green = sol.MonthlyCostUSD, sol.GreenFraction
				for _, s := range sol.Sites {
					cands = append(cands, core.Candidate{SiteID: byName[s.Name], CapacityKW: s.CapacityMW * 1000})
				}
			}
		} else {
			// The same search split at the core layer's public entry
			// points: FilterSites, then Solve on the filtered candidates.
			root := tr.begin("siting.place", id, -1)
			span := tr.begin("core.filter", id, root)
			var ids []int
			ids, err = core.FilterSites(inner, spec, sitingFilterKeep)
			tr.end(span)
			if err == nil {
				span = tr.begin("core.anneal", id, root)
				var sol *core.Solution
				sol, err = core.Solve(inner, spec, core.SolveOptions{Candidates: ids, FilterKeep: sitingFilterKeep,
					Chains: chains, MaxIterations: sitingIterations, Seed: sr.seed})
				tr.end(span)
				if err == nil {
					monthly, green = sol.TotalMonthlyUSD, sol.GreenFraction
					for _, s := range sol.Sites {
						cands = append(cands, core.Candidate{SiteID: s.Site.ID, CapacityKW: s.Provision.CapacityKW})
					}
				} else if errors.Is(err, core.ErrInfeasible) {
					err = placement.ErrNoSolution
				}
			}
			tr.end(root)
		}
		d := time.Since(start)
		loop += d
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "siting: request %s (%v): %v\n", id, sr, err)
			continue
		}
		place.add(d)
		costs = append(costs, monthly)

		// Check the answer outside the timed region: priced again by an
		// independent evaluator it is feasible and meets its green target.
		ev, err := core.NewEvaluator(inner, spec)
		if err != nil {
			return nil, err
		}
		es := time.Now()
		span := tr.begin("core.evaluate", id, -1)
		sum, err := ev.EvaluateCost(cands)
		tr.end(span)
		evalUs = append(evalUs, float64(time.Since(es))/1e3)
		if err != nil || !sum.Feasible || sum.GreenFraction < sr.req.GreenFraction-1e-9 || green < sr.req.GreenFraction-1e-9 {
			rep.failCheck("siting: request %s (%v): answer is infeasible or misses its green target (evaluator: feasible=%v green=%.6g, answer green=%.6g, err=%v)",
				id, sr, sum.Feasible, sum.GreenFraction, green, err)
		}

		if (sr.grid+sr.cycle)%sitingExactEvery != 0 {
			continue
		}
		// Validation: the exact MILP on a subset, against the heuristic on
		// the same subset.
		subset := rand.New(rand.NewSource(int64(sr.cycle*1000 + sr.grid))).Perm(inner.Len())[:sitingSubset]
		rep.attempted++
		span = tr.begin("core.exact", id, -1)
		es = time.Now()
		exact, err := core.SolveExact(inner, subset, spec, core.ExactOptions{MaxNodes: sitingExactNodes})
		ed := time.Since(es)
		tr.end(span)
		loop += ed
		if err != nil {
			rep.failed++
			exactFailed++
			fmt.Fprintf(os.Stderr, "siting: exact solve for request %s (%v) on sites %v failed: %v\n", id, sr, subset, err)
			continue
		}
		exactMs.add(ed)
		nodes = append(nodes, float64(exact.ExactNodes))
		pivots = append(pivots, float64(exact.ExactLPStats.Pivots))
		refactors = append(refactors, float64(exact.ExactLPStats.Refactorizations))
		presolve = append(presolve, float64(exact.ExactLPStats.PresolveNanos)/1e6)
		cold = append(cold, float64(exact.ExactLPStats.ColdFallbacks))
		sub, err := inner.Subset(subset)
		if err != nil {
			return nil, err
		}
		heur, err := core.Solve(sub, spec, core.SolveOptions{FilterKeep: sitingSubset, Chains: chains, MaxIterations: sitingIterations, Seed: sr.seed})
		if err != nil || !exact.Feasible {
			uncompared++
			continue
		}
		ratios = append(ratios, heur.TotalMonthlyUSD/exact.TotalMonthlyUSD)
	}
	rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	q := tailQuantile(len(place))
	rep.set("siting_p50_ms", place.median(), "ms", len(place))
	rep.set("siting_p99_ms", place.quantile(q), "ms", len(place))
	rep.set("sitings_per_s", float64(len(place))/loop.Seconds(), "1/s", len(place))
	rep.set("exact_p50_ms", exactMs.median(), "ms", len(exactMs))
	rep.set("siting_cost_usd", samples(costs).mean(), "USD", len(costs))
	r := samples(ratios)
	var lost, outOfBand int
	for _, v := range ratios {
		if v > 1.01 {
			lost++
		}
		if v < 0.45 || v > 2 {
			outOfBand++
		}
	}
	rep.sum = append(rep.sum,
		fmt.Sprintf("siting tail is p%g of %d answered requests (%d attempted)", 100*q, len(place), len(stream)),
		fmt.Sprintf("exact validation: %d solved, %d failed, %d not comparable (no feasible siting on the subset); heuristic/exact cost on the same subset: median %.4g, min %.4g, max %.4g over %d; heuristic worse by >1%%: %d; outside [0.45, 2]: %d",
			len(exactMs), exactFailed, uncompared, r.median(), r.quantile(0), r.quantile(1), len(ratios), lost, outOfBand))
	if tr != nil {
		f := tr.byName("core.filter")
		a := tr.byName("core.anneal")
		rep.layer("core.filter_ms", f.median(), "ms", len(f))
		rep.layer("core.anneal_ms", a.median(), "ms", len(a))
		rep.layer("core.evaluate_us", samples(evalUs).median(), "us", len(evalUs))
		rep.layer("core.exact_ms", exactMs.median(), "ms", len(exactMs))
		rep.layer("milp.nodes", nodes.mean(), "count", len(nodes))
		rep.layer("lp.pivots", pivots.mean(), "count", len(pivots))
		rep.layer("lp.refactorizations", refactors.mean(), "count", len(refactors))
		rep.layer("lp.presolve_ms", presolve.mean(), "ms", len(presolve))
		rep.layer("lp.cold_fallbacks", cold.mean(), "count", len(cold))
	}
	return rep, nil
}
