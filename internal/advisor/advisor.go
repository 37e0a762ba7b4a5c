// Package advisor closes the loop between live telemetry and the Section-6
// analytical cost model. It subscribes to completed operation traces
// (obs.Registry.Subscribe), continuously aggregates the observed read/update
// mix per replicated path over a ring of fixed-size operation windows, and —
// on demand — feeds that mix into costmodel to cost the three strategies (no
// replication / in-place / separate) per path and rank recommendations by
// predicted savings.
//
// It also tracks *cost-model drift*: every planned operation carries the
// planner's page prediction, and the advisor histograms the
// predicted-vs-observed page error per access path. A recommendation built on
// a model that is currently mispredicting this workload carries a lower
// confidence, so drift bounds how much to trust the ranking.
//
// The advisor is recommend-only: it never changes a path's strategy itself.
// The aggregation path (Observe) is designed to be cheap — one mutex
// acquisition and a few counter bumps per completed operation — because it
// runs inline in trace Finish.
package advisor

import (
	"math"
	"sort"
	"sync"
	"time"

	"github.com/exodb/fieldrepl/internal/costmodel"
	"github.com/exodb/fieldrepl/internal/obs"
)

// Config sizes the aggregation windows.
type Config struct {
	// WindowOps is the number of path-relevant operations per aggregation
	// window; when the current window fills, every path's mix is rotated into
	// its ring. Smaller windows converge faster on workload shifts but carry
	// more sampling noise. Default 256.
	WindowOps int
	// Windows is the ring length: how many rotated windows (plus the current
	// partial one) the recommendation mix is computed over. A workload shift
	// ages out of the mix after Windows rotations. Default 8.
	Windows int
}

func (c Config) withDefaults() Config {
	if c.WindowOps <= 0 {
		c.WindowOps = 256
	}
	if c.Windows <= 0 {
		c.Windows = 8
	}
	return c
}

// winMix is one window's (or one all-time) read/update mix for a path.
type winMix struct {
	Reads      int64
	Updates    int64
	ReadRows   int64 // Σ result rows over the window's reads
	UpdateRows int64 // Σ matched rows over the window's updates
	ReadPages  int64 // Σ observed page accesses over reads
}

func (w winMix) add(v winMix) winMix {
	return winMix{
		Reads:      w.Reads + v.Reads,
		Updates:    w.Updates + v.Updates,
		ReadRows:   w.ReadRows + v.ReadRows,
		UpdateRows: w.UpdateRows + v.UpdateRows,
		ReadPages:  w.ReadPages + v.ReadPages,
	}
}

// pathAgg is the accumulated state of one replicated-path key.
type pathAgg struct {
	allTime winMix
	cur     winMix
	ring    []winMix // most recent rotated windows, oldest first
	// drift histograms the absolute predicted-vs-observed page error, in
	// basis points (1% == 100), of operations touching this path.
	drift *obs.Histogram
}

// Advisor aggregates the trace stream. Safe for concurrent use.
type Advisor struct {
	cfg Config

	mu        sync.Mutex
	paths     map[string]*pathAgg
	opsInWin  int
	rotations int64
	ops       int64 // path-relevant operations observed
	total     int64 // all completed traces seen

	// driftByAccess histograms model error per access label
	// ("set|plan-family"), independent of replication paths, so drift is
	// visible even for sets with no replicated paths. Values are *obs.Histogram.
	driftByAccess sync.Map
}

// New returns an advisor with cfg (zero fields take defaults).
func New(cfg Config) *Advisor {
	return &Advisor{cfg: cfg.withDefaults(), paths: map[string]*pathAgg{}}
}

// planFamily reduces a plan string to its operator family: "index:name" →
// "index", "scan-parallel" → "scan", anything else passes through (bounded
// label cardinality for the per-access drift series).
func planFamily(plan string) string {
	switch {
	case plan == "":
		return "unplanned"
	case len(plan) >= 5 && plan[:5] == "index":
		return "index"
	case len(plan) >= 4 && plan[:4] == "scan":
		return "scan"
	}
	return plan
}

// Observe folds one completed trace into the aggregation. It is the
// obs.Registry subscription callback and must stay cheap: drift histograms
// are lock-free, and the mix update is a few counter bumps under one mutex.
func (a *Advisor) Observe(rec obs.Record) {
	// Drift: every planned operation contributes, replicated or not.
	if rec.PredictedPages > 0 {
		observed := float64(rec.Counters.PageAccesses())
		errBps := int64(math.Round(math.Abs(observed-rec.PredictedPages) / rec.PredictedPages * 10000))
		label := rec.Set + "|" + planFamily(rec.Plan)
		h, ok := a.driftByAccess.Load(label)
		if !ok {
			h, _ = a.driftByAccess.LoadOrStore(label, obs.NewHistogram())
		}
		h.(*obs.Histogram).Observe(time.Duration(errBps))
		if len(rec.Paths) > 0 {
			a.mu.Lock()
			for _, key := range rec.Paths {
				a.agg(key).drift.Observe(time.Duration(errBps))
			}
			a.mu.Unlock()
		}
	}

	var d winMix
	isUpdate := false
	switch rec.Kind {
	case obs.KindQuery:
		d = winMix{Reads: 1, ReadRows: rec.Rows, ReadPages: rec.Counters.PageAccesses()}
	case obs.KindUpdate:
		isUpdate = true
	case obs.KindDML:
		if rec.Detail != "update" {
			a.mu.Lock()
			a.total++
			a.mu.Unlock()
			return
		}
		isUpdate = true
	default:
		a.mu.Lock()
		a.total++
		a.mu.Unlock()
		return
	}
	if isUpdate {
		d = winMix{Updates: 1, UpdateRows: rec.Rows}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.total++
	if len(rec.Paths) == 0 {
		return
	}
	a.ops++
	for _, key := range rec.Paths {
		p := a.agg(key)
		p.allTime = p.allTime.add(d)
		p.cur = p.cur.add(d)
	}
	a.opsInWin++
	if a.opsInWin >= a.cfg.WindowOps {
		a.rotateLocked()
	}
}

// agg returns (creating if needed) the aggregate for key. Caller holds a.mu.
func (a *Advisor) agg(key string) *pathAgg {
	p, ok := a.paths[key]
	if !ok {
		p = &pathAgg{drift: obs.NewHistogram()}
		a.paths[key] = p
	}
	return p
}

// Keys returns every path key observed so far, sorted. Callers use it to
// include observed-but-unreplicated paths (candidates for replication) in the
// facts they hand to Report.
func (a *Advisor) Keys() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.paths))
	for k := range a.paths {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// rotateLocked closes the current window on every path. Caller holds a.mu.
func (a *Advisor) rotateLocked() {
	for _, p := range a.paths {
		if len(p.ring) >= a.cfg.Windows {
			copy(p.ring, p.ring[1:])
			p.ring = p.ring[:len(p.ring)-1]
		}
		p.ring = append(p.ring, p.cur)
		p.cur = winMix{}
	}
	a.opsInWin = 0
	a.rotations++
}

// PathFacts is what the advisor needs to know about one replicated path to
// cost it: its key, its current strategy and clustering setting, and the
// measured cost-model parameters (set cardinalities, object and replicated
// field sizes) the caller derived from the catalog. The advisor overlays the
// observed workload mix (Fr, Fs, update fraction) on Params before costing.
type PathFacts struct {
	Key      string
	Current  costmodel.Strategy
	Setting  costmodel.Setting
	Params   costmodel.Params
	Deferred bool
}

// StrategyCost is one strategy's cost at the observed mix: pages per read
// query, pages per update, and the mix-weighted total. The read and update
// components let a consumer re-weigh the total at any update fraction (it is
// linear in it).
type StrategyCost struct {
	ReadPages   float64 `json:"read_pages"`
	UpdatePages float64 `json:"update_pages"`
	TotalPages  float64 `json:"total_pages"`
}

// DriftSummary digests one model-error histogram: quantiles of
// |predicted-observed|/predicted page error, in percent.
type DriftSummary struct {
	Samples int64   `json:"samples"`
	P50Pct  float64 `json:"p50_pct"`
	P95Pct  float64 `json:"p95_pct"`
	P99Pct  float64 `json:"p99_pct"`
}

func driftSummary(h *obs.Histogram) DriftSummary {
	s := h.Snapshot()
	sum := s.Summary()
	return DriftSummary{
		Samples: sum.Count,
		P50Pct:  float64(s.Quantile(0.50)) / 100,
		P95Pct:  float64(s.Quantile(0.95)) / 100,
		P99Pct:  float64(s.Quantile(0.99)) / 100,
	}
}

// Confidence levels attached to recommendations.
const (
	ConfidenceNone   = "none"   // no observed operations on the path
	ConfidenceLow    = "low"    // mix too thin, or the model badly mispredicts
	ConfidenceMedium = "medium" // enough samples, moderate model error
	ConfidenceHigh   = "high"   // enough samples, model tracking observations
)

// Recommendation is one path's costed ranking.
type Recommendation struct {
	// Path is the dotted path key ("Emp1.dept.name"); Current and Recommended
	// are strategy slugs: "no-replication", "in-place", "separate".
	Path        string `json:"path"`
	Current     string `json:"current"`
	Recommended string `json:"recommended"`
	// Setting is the clustering regime the costing assumed ("clustered" when
	// the source set carries a clustered index, else "unclustered").
	Setting string `json:"setting"`
	// Change reports whether the recommended strategy differs from the
	// current one.
	Change bool `json:"change"`

	// Observed mix: all-time counts and the windowed mix (ring + current
	// window) the costing used.
	Reads          int64   `json:"reads"`
	Updates        int64   `json:"updates"`
	WindowReads    int64   `json:"window_reads"`
	WindowUpdates  int64   `json:"window_updates"`
	UpdateFraction float64 `json:"update_fraction"`
	// Fr/Fs are the observed selectivities overlaid on the cost model: mean
	// result rows per read over |R|, mean matched rows per update over |S|.
	Fr float64 `json:"fr"`
	Fs float64 `json:"fs"`

	// Costs keys "no-replication", "in-place", "separate" to their pages per
	// operation at the observed mix.
	Costs map[string]StrategyCost `json:"costs"`
	// PredictedSavingsPct is the total-cost saving of the recommended
	// strategy relative to the current one, in percent (0 when no change).
	PredictedSavingsPct float64 `json:"predicted_savings_pct"`

	// Confidence grades the recommendation — "none", "low", "medium", "high"
	// — from the sample count and the model's observed drift on this path.
	Confidence string `json:"confidence"`
	// ModelError is the drift of operations touching this path.
	ModelError DriftSummary `json:"model_error"`
}

// Report is the advisor's full snapshot.
type Report struct {
	// Enabled is false when the database runs with the advisor off; all other
	// fields are zero then.
	Enabled bool `json:"enabled"`
	// WindowOps/Windows echo the aggregation configuration; WindowsRotated
	// counts completed windows since open, OpsObserved the path-relevant
	// operations, TracesObserved every completed trace seen.
	WindowOps      int   `json:"window_ops"`
	Windows        int   `json:"windows"`
	WindowsRotated int64 `json:"windows_rotated"`
	OpsObserved    int64 `json:"ops_observed"`
	TracesObserved int64 `json:"traces_observed"`
	// Recommendations is sorted by predicted savings, largest first; paths
	// with no observed operations sort last.
	Recommendations []Recommendation `json:"recommendations"`
	// ModelDrift digests predicted-vs-observed page error per access label
	// ("set|plan-family"), across all planned operations (not only those
	// touching replicated paths).
	ModelDrift map[string]DriftSummary `json:"model_drift,omitempty"`
}

// StrategySlug returns the stable short label used in report cost maps and
// Prometheus series: "no-replication", "in-place", "separate".
func StrategySlug(st costmodel.Strategy) string {
	switch st {
	case costmodel.InPlace:
		return "in-place"
	case costmodel.Separate:
		return "separate"
	default:
		return "no-replication"
	}
}

var strategies = []costmodel.Strategy{costmodel.NoReplication, costmodel.InPlace, costmodel.Separate}

// Report costs every fact's three strategies at the observed mix and returns
// the ranked snapshot. facts come from the caller's catalog (the advisor
// itself never touches engine state, so Report is deadlock-free with respect
// to engine locks).
func (a *Advisor) Report(facts []PathFacts) Report {
	a.mu.Lock()
	rep := Report{
		Enabled:        true,
		WindowOps:      a.cfg.WindowOps,
		Windows:        a.cfg.Windows,
		WindowsRotated: a.rotations,
		OpsObserved:    a.ops,
		TracesObserved: a.total,
	}
	type snap struct {
		all, win winMix
		drift    *obs.Histogram
	}
	snaps := map[string]snap{}
	for key, p := range a.paths {
		win := p.cur
		for _, w := range p.ring {
			win = win.add(w)
		}
		snaps[key] = snap{all: p.allTime, win: win, drift: p.drift}
	}
	a.mu.Unlock()

	for _, f := range facts {
		s := snaps[f.Key]
		rec := Recommendation{
			Path:          f.Key,
			Current:       StrategySlug(f.Current),
			Setting:       f.Setting.String(),
			Reads:         s.all.Reads,
			Updates:       s.all.Updates,
			WindowReads:   s.win.Reads,
			WindowUpdates: s.win.Updates,
			Confidence:    ConfidenceNone,
			Costs:         map[string]StrategyCost{},
		}
		if s.drift != nil {
			rec.ModelError = driftSummary(s.drift)
		}

		p := f.Params
		total := s.win.Reads + s.win.Updates
		if total > 0 {
			rec.UpdateFraction = float64(s.win.Updates) / float64(total)
			if s.win.Reads > 0 && p.RCount() > 0 {
				rec.Fr = clamp(float64(s.win.ReadRows)/float64(s.win.Reads)/p.RCount(), 1/p.RCount(), 1)
			}
			if s.win.Updates > 0 && p.SCount > 0 {
				rec.Fs = clamp(float64(s.win.UpdateRows)/float64(s.win.Updates)/p.SCount, 1/p.SCount, 1)
			}
		}
		if rec.Fr > 0 {
			p.Fr = rec.Fr
		}
		if rec.Fs > 0 {
			p.Fs = rec.Fs
		}

		best := f.Current
		bestTotal := math.Inf(1)
		for _, st := range strategies {
			sc := StrategyCost{
				ReadPages:   p.ReadCost(st, f.Setting),
				UpdatePages: p.UpdateCost(st, f.Setting),
			}
			sc.TotalPages = (1-rec.UpdateFraction)*sc.ReadPages + rec.UpdateFraction*sc.UpdatePages
			rec.Costs[StrategySlug(st)] = sc
			if sc.TotalPages < bestTotal {
				bestTotal = sc.TotalPages
				best = st
			}
		}
		rec.Recommended = StrategySlug(best)
		rec.Change = best != f.Current
		curTotal := rec.Costs[rec.Current].TotalPages
		if rec.Change && curTotal > 0 {
			rec.PredictedSavingsPct = 100 * (curTotal - bestTotal) / curTotal
		}
		rec.Confidence = a.confidence(total, rec.ModelError)
		rep.Recommendations = append(rep.Recommendations, rec)
	}

	sort.Slice(rep.Recommendations, func(i, j int) bool {
		ri, rj := rep.Recommendations[i], rep.Recommendations[j]
		if ri.PredictedSavingsPct != rj.PredictedSavingsPct {
			return ri.PredictedSavingsPct > rj.PredictedSavingsPct
		}
		if (ri.WindowReads + ri.WindowUpdates) != (rj.WindowReads + rj.WindowUpdates) {
			return ri.WindowReads+ri.WindowUpdates > rj.WindowReads+rj.WindowUpdates
		}
		return ri.Path < rj.Path
	})

	rep.ModelDrift = map[string]DriftSummary{}
	a.driftByAccess.Range(func(k, v any) bool {
		rep.ModelDrift[k.(string)] = driftSummary(v.(*obs.Histogram))
		return true
	})
	return rep
}

// confidence grades a recommendation: none without observations, low until a
// quarter window of samples (or when the model's p95 error exceeds 50%),
// medium up to 25% error, high when the model tracks observations closely.
func (a *Advisor) confidence(samples int64, drift DriftSummary) string {
	if samples == 0 {
		return ConfidenceNone
	}
	if samples < int64(a.cfg.WindowOps)/4 {
		return ConfidenceLow
	}
	switch {
	case drift.Samples > 0 && drift.P95Pct > 50:
		return ConfidenceLow
	case drift.Samples > 0 && drift.P95Pct > 25:
		return ConfidenceMedium
	}
	return ConfidenceHigh
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
