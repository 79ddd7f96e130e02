package eval

import (
	"encoding/json"

	"jmake/internal/ccache"
)

// JSONReport is the machine-readable form of a completed evaluation: every
// table and figure in one marshalable structure, for downstream analysis
// pipelines.
type JSONReport struct {
	Commits int `json:"commits"`
	Skipped int `json:"skipped"`

	Summary struct {
		CertifiedAll            int `json:"certified_all"`
		TotalAll                int `json:"total_all"`
		CertifiedJanitor        int `json:"certified_janitor"`
		TotalJanitor            int `json:"total_janitor"`
		Untreatable             int `json:"untreatable"`
		SingleInvocationPatches int `json:"single_invocation_patches"`
	} `json:"summary"`

	TableII []JSONJanitor `json:"table2_janitors"`

	TableIII struct {
		All     JSONMix `json:"all"`
		Janitor JSONMix `json:"janitor"`
	} `json:"table3_patch_mix"`

	TableIV struct {
		Janitor map[string]int `json:"janitor"`
		All     map[string]int `json:"all"`
	} `json:"table4_escape_reasons"`

	Arch struct {
		HostSufficedC int            `json:"host_sufficed_c"`
		BeyondHostC   int            `json:"beyond_host_c"`
		HostSufficedH int            `json:"host_sufficed_h"`
		BeyondHostH   int            `json:"beyond_host_h"`
		PerArch       map[string]int `json:"per_arch"`
	} `json:"arch"`

	Configs ConfigStats `json:"configs"`
	CStats  CStats      `json:"c_stats"`
	HStats  HStats      `json:"h_stats"`

	Pipeline JSONPipeline `json:"pipeline"`

	// Presence reports the static presence-condition pre-pass; present only
	// when the run enabled it, so default reports are unchanged.
	Presence *JSONPresence `json:"presence,omitempty"`

	Faults struct {
		Retries                int            `json:"retries"`
		InjectedFaults         int            `json:"injected_faults"`
		EventsByKind           map[string]int `json:"events_by_kind,omitempty"`
		BudgetExhaustedPatches int            `json:"budget_exhausted_patches"`
		BudgetExhaustedFiles   int            `json:"budget_exhausted_files"`
		QuarantinedArchPatches int            `json:"quarantined_arch_patches"`
		BackoffSeconds         float64        `json:"backoff_seconds"`
	} `json:"faults"`

	Figures map[string]JSONCDF `json:"figures"`
}

// JSONJanitor is one Table II row.
type JSONJanitor struct {
	Name           string  `json:"name"`
	Patches        int     `json:"patches"`
	Subsystems     int     `json:"subsystems"`
	Lists          int     `json:"lists"`
	MaintainerFrac float64 `json:"maintainer_frac"`
	FileCV         float64 `json:"file_cv"`
	WindowPatches  int     `json:"window_patches"`
}

// JSONMix is one Table III column.
type JSONMix struct {
	COnly int `json:"c_only"`
	HOnly int `json:"h_only"`
	Both  int `json:"both"`
	Total int `json:"total"`
}

// JSONPipeline is the pipeline section, built once per run (see
// pipelineSection). Only fields that are invariant under the worker count
// AND the result-cache state appear by default; Runtime carries the
// volatile figures (scheduling, plus the token- and result-cache counters,
// which depend on cache warmth). It is always filled in Run.Pipeline, but
// only JSONWithRuntime prints it, keeping the default report
// byte-identical at any -workers setting and any cache state.
type JSONPipeline struct {
	Patches        int                  `json:"patches"`
	Checked        int                  `json:"checked"`
	ConfigCache    JSONCacheStats       `json:"config_cache"`
	VirtualSeconds StageVirtual         `json:"virtual_seconds"`
	StaticSkippedI int                  `json:"static_skipped_make_i,omitempty"`
	StaticSkippedO int                  `json:"static_skipped_make_o,omitempty"`
	Runtime        *JSONPipelineRuntime `json:"runtime,omitempty"`
}

// JSONPresence is the machine-readable static-analysis section. Every
// field is deterministic and worker-count-invariant; disagreements must be
// zero on a healthy run (each entry is a static/dynamic cross-check
// failure, i.e. an analysis bug).
type JSONPresence struct {
	StaticDeadFiles int `json:"static_dead_files"`
	StaticDeadLines int `json:"static_dead_lines"`
	SkippedMakeI    int `json:"skipped_make_i"`
	SkippedMakeO    int `json:"skipped_make_o"`
	Disagreements   int `json:"disagreements"`
}

// JSONCacheStats is one shared cache's counters.
type JSONCacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// JSONPipelineRuntime is the volatile part of the pipeline section. The
// token-cache counters live here (not in the default section) because a
// warm result cache serves verdicts without re-lexing, shifting the
// token-cache hit/miss split with cache warmth.
type JSONPipelineRuntime struct {
	Workers       int              `json:"workers"`
	InFlight      int              `json:"in_flight"`
	MaxBuffered   int              `json:"max_buffered"`
	WallSeconds   float64          `json:"wall_seconds"`
	PatchesPerSec float64          `json:"patches_per_sec"`
	TokenCache    JSONCacheStats   `json:"token_cache"`
	ResultCache   *JSONResultCache `json:"result_cache,omitempty"`
}

// JSONResultCache is the shared compile-result cache section, present in
// runtime reports when the cache is enabled. SavedVirtualSecs is the
// effective virtual time the cache saved (full recompute price minus
// charged probe costs; the per-stage figures sum to it). Reported
// per-patch durations always use the full price; EffectiveSecs is the
// run's honest cost with probes charged instead.
type JSONResultCache struct {
	MakeI            ccache.Stats `json:"make_i"`
	MakeO            ccache.Stats `json:"make_o"`
	Entries          int          `json:"entries"`
	Bytes            int64        `json:"bytes"`
	LoadedEntries    int          `json:"loaded_entries"`
	SavedVirtualSecs float64      `json:"saved_virtual_seconds"`
	SavedMakeISecs   float64      `json:"saved_make_i_seconds"`
	SavedMakeOSecs   float64      `json:"saved_make_o_seconds"`
	EffectiveSecs    float64      `json:"effective_seconds"`
}

// JSONCDF summarizes one figure's distribution in seconds.
type JSONCDF struct {
	N      int          `json:"n"`
	P50    float64      `json:"p50"`
	P82    float64      `json:"p82"`
	P95    float64      `json:"p95"`
	P98    float64      `json:"p98"`
	Max    float64      `json:"max"`
	Points [][2]float64 `json:"points,omitempty"`
}

// JSON builds the machine-readable report. points controls whether the
// figures carry full CDF point series. The output is deterministic: two
// same-seed runs produce byte-identical bytes regardless of worker count.
func (r *Run) JSON(points bool) ([]byte, error) {
	return r.buildJSON(points, false)
}

// JSONWithRuntime is JSON plus the volatile pipeline runtime section
// (wall clock, throughput, worker configuration). Its output is NOT
// reproducible across machines or worker counts.
func (r *Run) JSONWithRuntime(points bool) ([]byte, error) {
	return r.buildJSON(points, true)
}

func (r *Run) buildJSON(points, runtime bool) ([]byte, error) {
	var out JSONReport
	out.Commits = len(r.Results)
	out.Skipped = r.SkippedCount()

	s := r.ComputeSummary()
	out.Summary.CertifiedAll = s.CertifiedAll
	out.Summary.TotalAll = s.TotalAll
	out.Summary.CertifiedJanitor = s.CertifiedJanitor
	out.Summary.TotalJanitor = s.TotalJanitor
	out.Summary.Untreatable = s.Untreatable
	out.Summary.SingleInvocationPatches = s.SingleInvocationPatches

	for _, j := range r.Janitors {
		out.TableII = append(out.TableII, JSONJanitor{
			Name: j.Name, Patches: j.Patches, Subsystems: j.Subsystems,
			Lists: j.Lists, MaintainerFrac: j.MaintainerFrac,
			FileCV: j.FileCV, WindowPatches: j.WindowPatches,
		})
	}

	t3 := r.ComputeTableIII()
	out.TableIII.All = JSONMix{t3.All.COnly, t3.All.HOnly, t3.All.Both, t3.All.Total}
	out.TableIII.Janitor = JSONMix{t3.Janitor.COnly, t3.Janitor.HOnly, t3.Janitor.Both, t3.Janitor.Total}

	out.TableIV.Janitor = escapeCountsByName(r.ComputeTableIV(true))
	out.TableIV.All = escapeCountsByName(r.ComputeTableIV(false))

	arch := r.ComputeArchStats()
	out.Arch.HostSufficedC = arch.HostSufficedC
	out.Arch.BeyondHostC = arch.BeyondHostC
	out.Arch.HostSufficedH = arch.HostSufficedH
	out.Arch.BeyondHostH = arch.BeyondHostH
	out.Arch.PerArch = arch.PerArch

	out.Configs = r.ComputeConfigStats()
	out.CStats = r.ComputeCStats(false)
	out.HStats = r.ComputeHStats(false)

	out.Pipeline = r.Pipeline
	if !runtime {
		out.Pipeline.Runtime = nil
	}
	if r.Params.Checker.StaticPresence {
		ps := r.ComputePresenceStats()
		out.Presence = &JSONPresence{
			StaticDeadFiles: ps.StaticDeadFiles,
			StaticDeadLines: ps.StaticDeadLines,
			SkippedMakeI:    ps.SkippedMakeI,
			SkippedMakeO:    ps.SkippedMakeO,
			Disagreements:   ps.Disagreements,
		}
	}
	fs := r.ComputeFaultStats()
	out.Faults.Retries = fs.Retries
	out.Faults.InjectedFaults = fs.InjectedFaults
	if len(fs.EventsByKind) > 0 {
		out.Faults.EventsByKind = fs.EventsByKind
	}
	out.Faults.BudgetExhaustedPatches = fs.BudgetExhaustedPatches
	out.Faults.BudgetExhaustedFiles = fs.BudgetExhaustedFiles
	out.Faults.QuarantinedArchPatches = fs.QuarantinedArchPatches
	out.Faults.BackoffSeconds = fs.BackoffTotal.Seconds()

	d := r.ComputeDurations()
	out.Figures = map[string]JSONCDF{
		"fig4a_config": cdfJSON(d.Fig4a(), points),
		"fig4b_make_i": cdfJSON(d.Fig4b(), points),
		"fig4c_make_o": cdfJSON(d.Fig4c(), points),
		"fig5_overall": cdfJSON(d.Fig5(), points),
		"fig6_janitor": cdfJSON(d.Fig6(), points),
	}
	return json.MarshalIndent(out, "", "  ")
}

func escapeCountsByName(t TableIV) map[string]int {
	out := make(map[string]int, len(t.Counts))
	for reason, n := range t.Counts {
		out[reason.String()] = n
	}
	out["affected_files_total"] = t.AffectedFiles
	return out
}

type cdfLike interface {
	Len() int
	Percentile(float64) float64
	Max() float64
	Points(int) [][2]float64
}

func cdfJSON(c cdfLike, points bool) JSONCDF {
	out := JSONCDF{
		N:   c.Len(),
		P50: c.Percentile(0.50),
		P82: c.Percentile(0.82),
		P95: c.Percentile(0.95),
		P98: c.Percentile(0.98),
		Max: c.Max(),
	}
	if points {
		out.Points = c.Points(50)
	}
	return out
}
