package afd

import (
	"sort"

	"repro/internal/ioa"
)

// Detection is one (observer, crashed location) detection: the steps — and,
// for stamped live records, the wall-clock nanoseconds — from the crash to
// the observer's first permanent suspicion of it (the last transition adding
// the subject with no later removal).
type Detection struct {
	Observer   ioa.Loc `json:"observer"`
	Crashed    ioa.Loc `json:"crashed"`
	CrashStep  int     `json:"crashStep"`
	DetectStep int     `json:"detectStep"`
	// Steps is max(DetectStep-CrashStep, 0): a detector that already
	// suspected the location when it crashed detected it instantly.
	Steps int   `json:"steps"`
	Ns    int64 `json:"ns,omitempty"`
}

// Mistake is one wrong-suspicion interval: an observer suspecting a
// location that had not crashed, measured from the suspicion's start to its
// removal (or to the crash/end of trace if never removed).
type Mistake struct {
	Observer ioa.Loc `json:"observer"`
	Suspect  ioa.Loc `json:"suspect"`
	Start    int     `json:"start"`
	End      int     `json:"end"`
	Steps    int     `json:"steps"`
	Ns       int64   `json:"ns,omitempty"`
	// Removed reports whether the detector itself ended the interval (the
	// accuracy-restoring transition), as opposed to the crash or the end of
	// the record.
	Removed bool `json:"removed"`
}

// Stats is the QoS record of one detector family over one execution.
// Step-indexed figures are always present; Ns figures are filled when the
// record carries wall-clock stamps (live runs).
type Stats struct {
	Family string `json:"family"`
	// Observers counts the locations that emitted at least one output of
	// the family.
	Observers int `json:"observers"`

	Detections []Detection `json:"detections,omitempty"`
	Mistakes   []Mistake   `json:"mistakes,omitempty"`

	DetectionMeanSteps float64 `json:"detectionMeanSteps,omitempty"`
	DetectionMaxSteps  int     `json:"detectionMaxSteps,omitempty"`
	DetectionMeanNs    float64 `json:"detectionMeanNs,omitempty"`
	DetectionMaxNs     int64   `json:"detectionMaxNs,omitempty"`
	// PropagationSteps is the suspicion-propagation spread per crash,
	// maximized over crashes: last observer's permanent detection minus the
	// first's — how long the failure's knowledge took to cover the mesh.
	PropagationSteps int   `json:"propagationSteps,omitempty"`
	PropagationNs    int64 `json:"propagationNs,omitempty"`

	MistakeCount     int     `json:"mistakeCount,omitempty"`
	MistakeMeanSteps float64 `json:"mistakeMeanSteps,omitempty"`
	MistakeMaxSteps  int     `json:"mistakeMaxSteps,omitempty"`
}

// Transition is one FD-output event that changed an observer's suspect set:
// the suspicion additions and removals it performed relative to the
// observer's previous output of the same detector family.
type Transition struct {
	// Event indexes the FD-output event in the trace.
	Event int `json:"event"`
	// Observer is the location whose detector copy produced the output;
	// Family names the detector (gossip locations run two copies).
	Observer ioa.Loc   `json:"observer"`
	Family   string    `json:"family"`
	Added    []ioa.Loc `json:"added,omitempty"`
	Removed  []ioa.Loc `json:"removed,omitempty"`
}

// SuspicionTracker folds the events of one execution, in trace order, into
// per-family suspect sets and detector QoS.  It is the one decoder of
// suspect-set payloads behind every QoS figure: causal.Compute and
// causal.DAG.Transitions fold a recorded trace through it, and
// chaos.TelemetryHook feeds it each fired event as a system observer, so
// streamed telemetry and offline analysis agree by construction.
//
// Steps are trace indices: the tracker must see every traced event, and
// only those, in order.  FD outputs with undecodable payloads are skipped
// (the AFD checkers' "suspect everyone" reading of malformed payloads is a
// checker-side convention; QoS only measures well-formed sets).  A tracker
// is not safe for concurrent use.
type SuspicionTracker struct {
	events    int // trace index of the next folded event
	crashStep map[ioa.Loc]int
	outs      map[fdCopy]*fdOutput
	fams      map[string]*famState
}

// fdCopy names one detector copy: a family's output at one location.
type fdCopy struct {
	family string
	loc    ioa.Loc
}

// suspicion is one (observer, subject) pair of a family.
type suspicion struct{ obs, sub ioa.Loc }

// fdOutput is a detector copy's last well-formed output.  Repeated outputs
// carry the same payload, so the payload comparison spares re-decoding.
type fdOutput struct {
	payload string
	set     ioa.LocSet
	fam     *famState
}

// famState is one family's suspicion bookkeeping.
type famState struct {
	observers int
	// open holds the start event of every standing wrong suspicion, closed
	// the wrong suspicions the detector took back.
	open   map[suspicion]int
	closed []Mistake
	// lastAdd holds, per standing suspicion, the event of its last
	// addition: the candidate permanent detection.
	lastAdd map[suspicion]int
}

// NewSuspicionTracker returns a tracker positioned before trace event 0.
func NewSuspicionTracker() *SuspicionTracker {
	return &SuspicionTracker{
		crashStep: map[ioa.Loc]int{},
		outs:      map[fdCopy]*fdOutput{},
		fams:      map[string]*famState{},
	}
}

// Fold consumes the next traced event and returns the suspect-set
// transition it performed, with Added and Removed sorted, or false when the
// event changed no suspect set.
func (t *SuspicionTracker) Fold(act ioa.Action) (Transition, bool) {
	idx := t.events
	t.events++
	if act.Kind == ioa.KindCrash {
		if _, seen := t.crashStep[act.Loc]; !seen {
			t.crashStep[act.Loc] = idx
		}
	}
	if act.Kind != ioa.KindFD {
		return Transition{}, false
	}
	key := fdCopy{act.Name, act.Loc}
	out := t.outs[key]
	if out != nil && out.payload == act.Payload {
		return Transition{}, false
	}
	set, err := ioa.ParseLocSet(act.Payload)
	if err != nil {
		return Transition{}, false
	}
	if out == nil {
		fam := t.fams[act.Name]
		if fam == nil {
			fam = &famState{open: map[suspicion]int{}, lastAdd: map[suspicion]int{}}
			t.fams[act.Name] = fam
		}
		fam.observers++
		out = &fdOutput{fam: fam}
		t.outs[key] = out
	}
	fam := out.fam
	tr := Transition{
		Event: idx, Observer: act.Loc, Family: act.Name,
		Added:   set.Minus(out.set).AppendMembers(nil),
		Removed: out.set.Minus(set).AppendMembers(nil),
	}
	for _, j := range tr.Added {
		p := suspicion{act.Loc, j}
		fam.lastAdd[p] = idx
		if _, crashed := t.crashStep[j]; !crashed {
			fam.open[p] = idx
		}
	}
	for _, j := range tr.Removed {
		p := suspicion{act.Loc, j}
		delete(fam.lastAdd, p)
		if start, open := fam.open[p]; open {
			delete(fam.open, p)
			fam.closed = append(fam.closed, Mistake{
				Observer: act.Loc, Suspect: j,
				Start: start, End: idx, Steps: idx - start,
				Removed: true,
			})
		}
	}
	out.payload, out.set = act.Payload, set
	if len(tr.Added) == 0 && len(tr.Removed) == 0 {
		return Transition{}, false
	}
	return tr, true
}

// Stats returns the per-family QoS of the events folded so far, sorted by
// family name.  A detection is the last standing addition of a crashed
// location; a mistake is a wrong-suspicion interval, closed by its removal
// or, when still standing, truncated at the suspect's crash or the end of
// the record.  stamps, when it holds one wall-clock offset per folded event
// (live records), adds the Ns figures; pass nil otherwise.
func (t *SuspicionTracker) Stats(stamps []int64) []Stats {
	if len(stamps) != t.events {
		stamps = nil
	}
	names := make([]string, 0, len(t.fams))
	for name := range t.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Stats, 0, len(names))
	for _, name := range names {
		out = append(out, t.familyStats(name, stamps))
	}
	return out
}

// familyStats derives one family's record; stamps is nil when unstamped.
func (t *SuspicionTracker) familyStats(name string, stamps []int64) Stats {
	fam := t.fams[name]
	s := Stats{Family: name, Observers: fam.observers}
	span := map[ioa.Loc][2]int{} // crashed → first and last permanent detection
	for p, at := range fam.lastAdd {
		cs, crashed := t.crashStep[p.sub]
		if !crashed {
			continue
		}
		d := Detection{Observer: p.obs, Crashed: p.sub, CrashStep: cs, DetectStep: at, Steps: max(at-cs, 0)}
		if stamps != nil {
			d.Ns = max(stamps[at]-stamps[cs], 0)
		}
		s.Detections = append(s.Detections, d)
		sp, seen := span[p.sub]
		if !seen {
			sp = [2]int{at, at}
		}
		span[p.sub] = [2]int{min(sp[0], at), max(sp[1], at)}
	}
	sort.Slice(s.Detections, func(i, j int) bool {
		a, b := s.Detections[i], s.Detections[j]
		return a.Crashed < b.Crashed || (a.Crashed == b.Crashed && a.Observer < b.Observer)
	})
	var sumSteps, sumNs float64
	for _, d := range s.Detections {
		sumSteps += float64(d.Steps)
		sumNs += float64(d.Ns)
		s.DetectionMaxSteps = max(s.DetectionMaxSteps, d.Steps)
		s.DetectionMaxNs = max(s.DetectionMaxNs, d.Ns)
	}
	if n := float64(len(s.Detections)); n > 0 {
		s.DetectionMeanSteps = sumSteps / n
		s.DetectionMeanNs = sumNs / n
	}
	for _, sp := range span {
		s.PropagationSteps = max(s.PropagationSteps, sp[1]-sp[0])
		if stamps != nil {
			s.PropagationNs = max(s.PropagationNs, stamps[sp[1]]-stamps[sp[0]])
		}
	}

	s.Mistakes = append(s.Mistakes, fam.closed...)
	for p, start := range fam.open {
		end := t.events
		if cs, crashed := t.crashStep[p.sub]; crashed && cs > start {
			end = cs
		}
		s.Mistakes = append(s.Mistakes, Mistake{Observer: p.obs, Suspect: p.sub, Start: start, End: end, Steps: end - start})
	}
	sort.Slice(s.Mistakes, func(i, j int) bool {
		a, b := s.Mistakes[i], s.Mistakes[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Observer < b.Observer || (a.Observer == b.Observer && a.Suspect < b.Suspect)
	})
	var sum float64
	for i := range s.Mistakes {
		m := &s.Mistakes[i]
		if stamps != nil && m.End < len(stamps) {
			m.Ns = stamps[m.End] - stamps[m.Start]
		}
		sum += float64(m.Steps)
		s.MistakeMaxSteps = max(s.MistakeMaxSteps, m.Steps)
	}
	if s.MistakeCount = len(s.Mistakes); s.MistakeCount > 0 {
		s.MistakeMeanSteps = sum / float64(s.MistakeCount)
	}
	return s
}
