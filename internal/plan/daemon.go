package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"greencloud/internal/emul"
	"greencloud/internal/location"
	"greencloud/internal/lp"
	"greencloud/internal/sched"
	"greencloud/internal/vm"
)

// Config configures a Daemon.
type Config struct {
	// Trace is the emulated trace the daemon plans against.
	Trace TraceSpec
	// SnapshotPath, when non-empty, is where the daemon persists a
	// versioned snapshot journal, and where New looks for one to resume
	// from.  The file is a checkpoint of the whole state (written
	// atomically: temp + rename) followed by one appended record per
	// tick since; the checkpoint is rewritten once the records reach its
	// size.  A resume applies the records to the checkpoint in order.
	SnapshotPath string
	// Ctx, when non-nil, is the daemon's base context: once cancelled the
	// daemon refuses new ticks and what-if queries, the clean-shutdown
	// contract a serving process needs (the PR 6 plumbing bounds the
	// in-flight solve via the trace's LP timeout).
	Ctx context.Context
	// Logf, when non-nil, receives operational log lines (snapshot
	// rejections, persistence failures).  The default discards them.
	Logf func(format string, args ...any)
}

// Totals is the cumulative accounting across all applied ticks.
type Totals struct {
	GreenKWh     float64 `json:"green_kwh"`
	BrownKWh     float64 `json:"brown_kwh"`
	DemandKWh    float64 `json:"demand_kwh"`
	MigrationKWh float64 `json:"migration_kwh"`
	Migrations   int     `json:"migrations"`
}

// PlanView is the daemon's serving state: what GET /plan returns and what a
// snapshot carries so a restarted daemon serves the same answer.  All
// fields are value copies — a PlanView never aliases runner scratch.
type PlanView struct {
	// Tick is the number of ticks applied since the trace began (survives
	// restarts).  AbsHour is the last applied trace hour.
	Tick    int `json:"tick"`
	AbsHour int `json:"abs_hour"`
	// Datacenters names the sites in configuration order; TargetLoadKW is
	// the current plan's first-hour load split in the same order.
	Datacenters  []string  `json:"datacenters"`
	TargetLoadKW []float64 `json:"target_load_kw"`
	// PlanBrownKWh and MigratedKW summarize the current partition plan;
	// Degraded marks a static-fallback plan (solver failure or timeout).
	PlanBrownKWh float64 `json:"plan_brown_kwh"`
	MigratedKW   float64 `json:"migrated_kw"`
	Degraded     bool    `json:"degraded"`
	// LastRecords is the last tick's per-datacenter trace.
	LastRecords []emul.HourRecord `json:"last_records"`
	// Totals accumulates over all ticks, exactly like a batch
	// emul.Result over the same trace.
	Totals Totals `json:"totals"`
	// LastLPStats is the last tick's partition-LP work; CumLPStats
	// accumulates across ticks.  CumLPStats.ColdFallbacks stays 0 for a
	// healthy warm daemon — including across a snapshot resume.
	LastLPStats lp.Stats `json:"last_lp_stats"`
	CumLPStats  lp.Stats `json:"cum_lp_stats"`
	// GreenScale holds the streamed weather adjustments currently in
	// effect (absent names are at scale 1).
	GreenScale map[string]float64 `json:"green_scale,omitempty"`
	// Resumed is true when this daemon restored its state from a
	// snapshot; WarmResume additionally means the snapshot carried a
	// usable basis, so the first post-restart solve starts warm.
	Resumed    bool `json:"resumed"`
	WarmResume bool `json:"warm_resume"`
	// SnapshotError reports a failed snapshot write (the daemon keeps
	// serving; persistence is degraded until a write succeeds).
	SnapshotError string `json:"snapshot_error,omitempty"`
}

// TickRequest is the body of POST /tick: feed the next trace hour, with
// optional streamed weather updates applied before planning.
type TickRequest struct {
	// GreenScale scales the named datacenters' green production (realized
	// and forecast) from this tick on; 1 restores the trace.
	GreenScale map[string]float64 `json:"green_scale,omitempty"`
}

// moveRec is one VM move in the snapshot's replay log.
type moveRec struct {
	VM   string `json:"vm"`
	From string `json:"from"`
	To   string `json:"to"`
}

// Daemon is the continuous planner.  It owns one emul.Runner (the trace,
// fleet and warm partition LP) and serializes ticks; the serving state is a
// read-mostly PlanView behind an RWMutex, so GET /plan never waits on a
// solve.  Create one with New, wire Handler into an http.Server.
type Daemon struct {
	cfg     Config
	ctx     context.Context
	logf    func(string, ...any)
	trace   emul.Config
	catalog *location.Catalog
	vmByID  map[string]vm.VM

	// tickMu serializes the tick path (runner stepping + snapshot
	// writes); mu guards the serving state swapped in at the end of each
	// tick.  Lock order: tickMu before mu.  view is only written under
	// both, so the tick path (snapshot writes) reads it under tickMu alone.
	tickMu  sync.Mutex
	runner  *emul.Runner
	moveLog [][]moveRec
	scales  map[string]float64
	// checkpointBytes is the size of the snapshot file's checkpoint frame
	// (0: none valid, write one next tick) and appendedBytes the size of
	// the tick records after it; see persist.
	checkpointBytes, appendedBytes int64

	mu   sync.RWMutex
	view PlanView

	sessions sessionStore
}

// Errors returned by the daemon.
var (
	// ErrShuttingDown rejects work arriving after the daemon's context
	// was cancelled.
	ErrShuttingDown = errors.New("plan: daemon is shutting down")
)

// New builds a daemon for the configured trace.  If Config.SnapshotPath
// names a readable, valid snapshot of the same trace, the daemon resumes
// from it: the recorded migration schedules are replayed against a fresh
// trace start (no LP work), the persisted basis is installed, and the
// persisted serving state is restored — so the first post-restart solve is
// warm and the tick stream continues bit-identically to a daemon that was
// never stopped.  A missing, corrupt, truncated or mismatched snapshot is
// logged and ignored: the daemon starts clean and cold.
func New(cfg Config) (*Daemon, error) {
	traceCfg, cat, err := cfg.Trace.Build()
	if err != nil {
		return nil, err
	}
	runner, err := emul.NewRunner(traceCfg)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:     cfg,
		ctx:     cfg.Ctx,
		logf:    cfg.Logf,
		trace:   traceCfg,
		catalog: cat,
		runner:  runner,
		scales:  make(map[string]float64),
		vmByID:  make(map[string]vm.VM, len(traceCfg.VMs)),
	}
	if d.ctx == nil {
		d.ctx = context.Background()
	}
	if d.logf == nil {
		d.logf = func(string, ...any) {}
	}
	for _, machine := range traceCfg.VMs {
		d.vmByID[machine.ID] = machine
	}
	d.sessions.init(d)

	if err := runner.Start(); err != nil {
		return nil, err
	}
	d.view = PlanView{Datacenters: runner.Datacenters()}
	if cfg.SnapshotPath != "" {
		if err := d.resumeFromSnapshot(cfg.SnapshotPath); err != nil {
			d.logf("plannerd: snapshot %s rejected, starting cold: %v", cfg.SnapshotPath, err)
			// Reject half-applied state: restart the trace from scratch
			// (green scales survive Start, so reset them explicitly).
			for _, name := range runner.Datacenters() {
				if err := runner.SetGreenScale(name, 1); err != nil {
					return nil, err
				}
			}
			if err := runner.Start(); err != nil {
				return nil, err
			}
			d.runner.SetWarmBasis(nil)
			d.moveLog = nil
			d.scales = make(map[string]float64)
			d.view = PlanView{Datacenters: runner.Datacenters()}
		}
	}
	return d, nil
}

// PlanView returns a copy of the current serving state.
func (d *Daemon) PlanView() PlanView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return copyView(d.view)
}

// Resumed reports whether the daemon restored from a snapshot, and whether
// the restore installed a warm basis.
func (d *Daemon) Resumed() (resumed, warm bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.view.Resumed, d.view.WarmResume
}

// Tick applies the next trace hour: ingest the request's streamed updates,
// re-plan incrementally (warm SolveFrom on the structure-cached partition
// LP), execute the resulting migration schedule, persist a snapshot and
// publish the new serving state, which is also returned.
func (d *Daemon) Tick(req TickRequest) (PlanView, error) {
	if err := d.ctx.Err(); err != nil {
		return PlanView{}, fmt.Errorf("%w: %v", ErrShuttingDown, err)
	}
	d.tickMu.Lock()
	defer d.tickMu.Unlock()

	for name, scale := range req.GreenScale {
		if err := d.runner.SetGreenScale(name, scale); err != nil {
			return PlanView{}, err
		}
	}

	tick, err := d.runner.Step()
	if err != nil {
		return PlanView{}, err
	}

	// Record the schedule for snapshot replay, then build the new view.
	moves := make([]moveRec, len(tick.Moves))
	for i, mv := range tick.Moves {
		moves[i] = moveRec{VM: mv.VM.ID, From: mv.From, To: mv.To}
	}
	d.moveLog = append(d.moveLog, moves)
	for name, scale := range req.GreenScale {
		if scale == 1 {
			delete(d.scales, name)
		} else {
			d.scales[name] = scale
		}
	}

	d.mu.Lock()
	prev := d.view
	next := d.buildView(prev, tick)
	d.view = next
	d.mu.Unlock()

	if d.cfg.SnapshotPath != "" {
		if err := d.persist(d.cfg.SnapshotPath); err != nil {
			d.logf("plannerd: snapshot write failed: %v", err)
			d.mu.Lock()
			d.view.SnapshotError = err.Error()
			next = copyView(d.view)
			d.mu.Unlock()
		}
	}
	return next, nil
}

// buildView folds one tick into the serving state.  Callers hold d.mu.
func (d *Daemon) buildView(prev PlanView, tick *emul.Tick) PlanView {
	next := prev
	next.Tick = prev.Tick + 1
	next.AbsHour = tick.AbsHour
	next.Datacenters = d.runner.Datacenters()
	next.LastRecords = append([]emul.HourRecord(nil), tick.Records...)
	next.LastLPStats = tick.LPStats
	next.CumLPStats = prev.CumLPStats
	next.CumLPStats.Add(tick.LPStats)
	next.Degraded = tick.Degraded
	next.SnapshotError = ""
	if tick.Plan != nil {
		next.TargetLoadKW = make([]float64, len(tick.Plan.LoadKW))
		for i, row := range tick.Plan.LoadKW {
			if len(row) > 0 {
				next.TargetLoadKW[i] = row[0]
			}
		}
		next.PlanBrownKWh = tick.Plan.BrownKWh
		next.MigratedKW = tick.Plan.MigratedKW
	}
	next.Totals = prev.Totals
	next.Totals.Migrations += tick.Migrations
	for i := range tick.Records {
		rec := &tick.Records[i]
		demandKW := rec.LoadKW + rec.PUEOverheadKW + rec.MigrationKW
		next.Totals.DemandKWh += demandKW
		next.Totals.BrownKWh += rec.BrownKW
		next.Totals.GreenKWh += demandKW - rec.BrownKW
		next.Totals.MigrationKWh += rec.MigrationKW
	}
	if len(d.scales) > 0 {
		next.GreenScale = make(map[string]float64, len(d.scales))
		for k, v := range d.scales {
			next.GreenScale[k] = v
		}
	} else {
		next.GreenScale = nil
	}
	return next
}

// replayLog reconstructs runner state from a snapshot's move log: each
// recorded schedule is re-executed without planning.  The runner must be
// freshly Started.
func (d *Daemon) replayLog(log [][]moveRec) error {
	for i, recs := range log {
		moves := make([]sched.Migration, len(recs))
		for j, rec := range recs {
			machine, ok := d.vmByID[rec.VM]
			if !ok {
				return fmt.Errorf("plan: snapshot tick %d references unknown VM %q", i, rec.VM)
			}
			moves[j] = sched.Migration{VM: machine, From: rec.From, To: rec.To}
		}
		if _, err := d.runner.Replay(moves); err != nil {
			return fmt.Errorf("plan: snapshot replay tick %d: %w", i, err)
		}
	}
	return nil
}

func copyView(v PlanView) PlanView {
	out := v
	out.Datacenters = append([]string(nil), v.Datacenters...)
	out.TargetLoadKW = append([]float64(nil), v.TargetLoadKW...)
	out.LastRecords = append([]emul.HourRecord(nil), v.LastRecords...)
	if v.GreenScale != nil {
		out.GreenScale = make(map[string]float64, len(v.GreenScale))
		for k, val := range v.GreenScale {
			out.GreenScale[k] = val
		}
	}
	return out
}
