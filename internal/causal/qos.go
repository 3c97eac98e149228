package causal

import (
	"sort"

	"repro/internal/afd"
	"repro/internal/trace"
)

// Detection, Mistake and Stats are the QoS records afd.SuspicionTracker
// derives; Compute and Summarize speak in them.
type (
	Detection = afd.Detection
	Mistake   = afd.Mistake
	Stats     = afd.Stats
)

// Compute derives per-family QoS from a recorded trace by folding it
// through an afd.SuspicionTracker, the same fold chaos.TelemetryHook streams
// fired events into.  stamps, when parallel to the trace (live records),
// adds wall-clock figures; pass nil for simulated records.  Steps are trace
// event indices — the uniform "time" both engines share.
func Compute(t trace.T, stamps []int64) []Stats {
	q := afd.NewSuspicionTracker()
	for _, act := range t {
		q.Fold(act)
	}
	return q.Stats(stamps)
}

// Summary aggregates a family's Stats across many executions (a chaos
// survey cell, a size sweep row).  Ns figures are zero unless every
// aggregated record was stamped.
type Summary struct {
	Family string `json:"family"`
	Runs   int    `json:"runs"`

	Detections         int     `json:"detections"`
	DetectionMeanSteps float64 `json:"detectionMeanSteps"`
	DetectionMaxSteps  int     `json:"detectionMaxSteps"`
	DetectionMeanNs    float64 `json:"detectionMeanNs,omitempty"`
	DetectionMaxNs     int64   `json:"detectionMaxNs,omitempty"`

	PropagationMeanSteps float64 `json:"propagationMeanSteps"`
	PropagationMaxSteps  int     `json:"propagationMaxSteps"`

	Mistakes         int     `json:"mistakes"`
	MistakesPerRun   float64 `json:"mistakesPerRun"`
	MistakeMeanSteps float64 `json:"mistakeMeanSteps"`
	MistakeMaxSteps  int     `json:"mistakeMaxSteps"`
}

// Summarize aggregates per-run Stats by family, sorted by family name.
func Summarize(all []Stats) []Summary {
	byFam := map[string]*Summary{}
	var detSteps, detNs, propSteps, misSteps map[string]float64
	detSteps = map[string]float64{}
	detNs = map[string]float64{}
	propSteps = map[string]float64{}
	misSteps = map[string]float64{}
	stampedAll := map[string]bool{}
	for _, s := range all {
		sum := byFam[s.Family]
		if sum == nil {
			sum = &Summary{Family: s.Family}
			byFam[s.Family] = sum
			stampedAll[s.Family] = true
		}
		sum.Runs++
		sum.Detections += len(s.Detections)
		detSteps[s.Family] += s.DetectionMeanSteps * float64(len(s.Detections))
		detNs[s.Family] += s.DetectionMeanNs * float64(len(s.Detections))
		if s.DetectionMeanNs == 0 {
			stampedAll[s.Family] = false
		}
		if s.DetectionMaxSteps > sum.DetectionMaxSteps {
			sum.DetectionMaxSteps = s.DetectionMaxSteps
		}
		if s.DetectionMaxNs > sum.DetectionMaxNs {
			sum.DetectionMaxNs = s.DetectionMaxNs
		}
		propSteps[s.Family] += float64(s.PropagationSteps)
		if s.PropagationSteps > sum.PropagationMaxSteps {
			sum.PropagationMaxSteps = s.PropagationSteps
		}
		sum.Mistakes += s.MistakeCount
		misSteps[s.Family] += s.MistakeMeanSteps * float64(s.MistakeCount)
		if s.MistakeMaxSteps > sum.MistakeMaxSteps {
			sum.MistakeMaxSteps = s.MistakeMaxSteps
		}
	}
	fams := make([]string, 0, len(byFam))
	for f := range byFam {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	out := make([]Summary, 0, len(fams))
	for _, f := range fams {
		sum := byFam[f]
		if sum.Detections > 0 {
			sum.DetectionMeanSteps = detSteps[f] / float64(sum.Detections)
			if stampedAll[f] {
				sum.DetectionMeanNs = detNs[f] / float64(sum.Detections)
			} else {
				sum.DetectionMaxNs = 0
			}
		}
		if sum.Runs > 0 {
			sum.PropagationMeanSteps = propSteps[f] / float64(sum.Runs)
			sum.MistakesPerRun = float64(sum.Mistakes) / float64(sum.Runs)
		}
		if sum.Mistakes > 0 {
			sum.MistakeMeanSteps = misSteps[f] / float64(sum.Mistakes)
		}
		out = append(out, *sum)
	}
	return out
}
