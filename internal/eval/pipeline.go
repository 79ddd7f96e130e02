package eval

import (
	"fmt"
	"strings"

	"jmake/internal/core"
	"jmake/internal/sched"
)

// StageVirtual breaks the window's virtual build time down by pipeline
// stage. Durations come from the deterministic cost model, so every field
// is worker-count-invariant.
type StageVirtual struct {
	ConfigSeconds  float64 `json:"config_seconds"`
	MakeISeconds   float64 `json:"make_i_seconds"`
	MakeOSeconds   float64 `json:"make_o_seconds"`
	BackoffSeconds float64 `json:"backoff_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`
}

// pipelineSection builds the run's pipeline section once, from the
// scheduler's counters, the session's cache counters (views over its
// metrics registry) and the merged reports. Runtime is always filled; the
// JSON encoders decide whether to print it. The per-stage sums iterate
// results in submission order, so even the floating-point accumulation is
// reproducible.
func pipelineSection(met sched.Metrics, results []PatchResult, session *core.Session) JSONPipeline {
	pm := JSONPipeline{
		Patches:     met.Items,
		ConfigCache: cacheJSON(session.ConfigCacheStats()),
		Runtime: &JSONPipelineRuntime{
			Workers:       met.Workers,
			InFlight:      met.InFlight,
			MaxBuffered:   met.MaxBuffered,
			WallSeconds:   met.Wall.Seconds(),
			PatchesPerSec: met.ItemsPerSec,
			TokenCache:    cacheJSON(session.TokenCacheStats()),
		},
	}
	for _, res := range results {
		if res.Report == nil {
			continue
		}
		pm.Checked++
		for _, d := range res.Report.ConfigDurations {
			pm.VirtualSeconds.ConfigSeconds += d.Seconds()
		}
		for _, d := range res.Report.MakeIDurations {
			pm.VirtualSeconds.MakeISeconds += d.Seconds()
		}
		for _, d := range res.Report.MakeODurations {
			pm.VirtualSeconds.MakeOSeconds += d.Seconds()
		}
		for _, d := range res.Report.BackoffDurations {
			pm.VirtualSeconds.BackoffSeconds += d.Seconds()
		}
		pm.VirtualSeconds.TotalSeconds += res.Report.Total.Seconds()
		pm.StaticSkippedI += res.Report.StaticSkippedMakeI
		pm.StaticSkippedO += res.Report.StaticSkippedMakeO
	}
	if rc, ok := session.ResultCacheStats(); ok {
		saved := rc.SavedVirtual.Seconds()
		pm.Runtime.ResultCache = &JSONResultCache{
			MakeI:            rc.MakeI,
			MakeO:            rc.MakeO,
			Entries:          rc.Entries,
			Bytes:            rc.Bytes,
			LoadedEntries:    rc.LoadedEntries,
			SavedVirtualSecs: saved,
			SavedMakeISecs:   rc.SavedMakeI.Seconds(),
			SavedMakeOSecs:   rc.SavedMakeO.Seconds(),
			EffectiveSecs:    pm.VirtualSeconds.TotalSeconds - saved,
		}
	}
	return pm
}

func cacheJSON(s core.CacheStats) JSONCacheStats {
	return JSONCacheStats{Hits: s.Hits, Misses: s.Misses, HitRate: s.HitRate()}
}

// RenderPipeline formats the pipeline section for the text report.
// runtime additionally prints the volatile scheduling figures.
func (r *Run) RenderPipeline(runtime bool) string {
	pm, rt := r.Pipeline, r.Pipeline.Runtime
	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline\n")
	fmt.Fprintf(&b, "  patches fanned out:   %d (%d checked)\n", pm.Patches, pm.Checked)
	fmt.Fprintf(&b, "  config cache:         %d hits / %d misses (%.1f%% hit rate)\n",
		pm.ConfigCache.Hits, pm.ConfigCache.Misses, 100*pm.ConfigCache.HitRate)
	fmt.Fprintf(&b, "  token cache:          %d hits / %d misses (%.1f%% hit rate)\n",
		rt.TokenCache.Hits, rt.TokenCache.Misses, 100*rt.TokenCache.HitRate)
	fmt.Fprintf(&b, "  virtual stage time:   config %.1fs, make.i %.1fs, make.o %.1fs, backoff %.1fs (total %.1fs)\n",
		pm.VirtualSeconds.ConfigSeconds, pm.VirtualSeconds.MakeISeconds, pm.VirtualSeconds.MakeOSeconds,
		pm.VirtualSeconds.BackoffSeconds, pm.VirtualSeconds.TotalSeconds)
	if pm.StaticSkippedI > 0 || pm.StaticSkippedO > 0 {
		fmt.Fprintf(&b, "  static pruning:       skipped %d make.i, %d make.o invocations\n",
			pm.StaticSkippedI, pm.StaticSkippedO)
	}
	if rc := rt.ResultCache; rc != nil {
		fmt.Fprintf(&b, "  result cache:         make.i %d/%d hits (%d deduped), make.o %d/%d hits, %d entries (%.1f MB)\n",
			rc.MakeI.Hits, rc.MakeI.Hits+rc.MakeI.Misses, rc.MakeI.Deduped,
			rc.MakeO.Hits, rc.MakeO.Hits+rc.MakeO.Misses,
			rc.Entries, float64(rc.Bytes)/(1<<20))
		if rc.LoadedEntries > 0 {
			fmt.Fprintf(&b, "  result cache warmth:  %d entries loaded from -cache-dir\n", rc.LoadedEntries)
		}
		fmt.Fprintf(&b, "  result cache effect:  saved %.1f virtual s (effective %.1fs of %.1fs)\n",
			rc.SavedVirtualSecs, rc.EffectiveSecs, pm.VirtualSeconds.TotalSeconds)
	}
	if runtime {
		fmt.Fprintf(&b, "  workers:              %d (in-flight bound %d, max buffered %d)\n",
			rt.Workers, rt.InFlight, rt.MaxBuffered)
		fmt.Fprintf(&b, "  wall clock:           %.2fs (%.1f patches/sec)\n",
			rt.WallSeconds, rt.PatchesPerSec)
	}
	return b.String()
}
