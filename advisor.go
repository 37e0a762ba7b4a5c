package fieldrepl

import (
	"encoding/json"

	"github.com/exodb/fieldrepl/internal/advisor"
)

// The workload advisor closes the loop between live telemetry and the paper's
// Section-6 cost model: it watches every completed operation trace, keeps a
// windowed read/update mix per replicated path (including dotted paths that
// are read but not replicated), and on demand costs the three strategies —
// no replication, in-place, separate — at the observed mix to recommend the
// cheapest one per path. It is recommend-only: applying a recommendation is
// an explicit Replicate/Unreplicate call by the operator.

// The report types are the advisor's own; their fields document each value.
type (
	// AdvisorReport is the advisor's full snapshot: configuration,
	// aggregation progress, ranked recommendations (largest predicted saving
	// first), and cost-model drift per access label ("set|plan-family").
	AdvisorReport = advisor.Report
	// AdvisorRecommendation is one path's costed ranking.
	AdvisorRecommendation = advisor.Recommendation
	// AdvisorDrift digests a predicted-vs-observed page-error histogram:
	// quantiles of |predicted−observed|/predicted, in percent.
	AdvisorDrift = advisor.DriftSummary
	// AdvisorStrategyCost is one strategy's Section-6 cost at the observed
	// mix: pages per read query, pages per update, and the mix-weighted total.
	AdvisorStrategyCost = advisor.StrategyCost
)

// Advise returns the workload advisor's current report: per-path strategy
// recommendations ranked by predicted savings, the observed mixes they are
// based on, and cost-model drift summaries. With the advisor disabled
// (Config.AdvisorDisabled) the report has Enabled=false and no content.
// Advise reads the catalog under the shared lock and never blocks writers
// beyond that; it applies nothing.
func (db *DB) Advise() AdvisorReport { return db.e.Advise() }

// AdviseJSON returns the advisor report as indented JSON — what the /advisor
// endpoint serves and extradb -advise prints.
func (db *DB) AdviseJSON() ([]byte, error) {
	return json.MarshalIndent(db.Advise(), "", "  ")
}
