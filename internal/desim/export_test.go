package desim

import "testing"

// Fingerprint exposes fingerprint to the external test package, which
// can attach the real internal/obs collector.
func Fingerprint(t *testing.T, r *Result) []byte { return fingerprint(t, r) }

// EventRecorder is the tests' event sink: an Observer that keeps the
// first Cap events of the four lifecycle kinds (generate, inject,
// grant, deliver) and counts the rest in Dropped. EvBlock episodes are
// skipped, so the golden hashes cover the lifecycle stream only.
type EventRecorder struct {
	Cap     int
	Events  []Event
	Dropped uint64
}

// BeginRun implements Observer.
func (r *EventRecorder) BeginRun(RunInfo) {}

// HandleEvent implements Observer.
func (r *EventRecorder) HandleEvent(ev Event) {
	switch {
	case ev.Kind == EvBlock:
	case len(r.Events) < r.Cap:
		r.Events = append(r.Events, ev)
	default:
		r.Dropped++
	}
}

// EndCycle implements Observer.
func (r *EventRecorder) EndCycle(int64) {}

// EndRun implements Observer.
func (r *EventRecorder) EndRun(*Result) {}

// tee fans every callback out to each observer in order.
type tee []Observer

// BeginRun implements Observer.
func (t tee) BeginRun(info RunInfo) {
	for _, o := range t {
		o.BeginRun(info)
	}
}

// HandleEvent implements Observer.
func (t tee) HandleEvent(ev Event) {
	for _, o := range t {
		o.HandleEvent(ev)
	}
}

// EndCycle implements Observer.
func (t tee) EndCycle(cycle int64) {
	for _, o := range t {
		o.EndCycle(cycle)
	}
}

// EndRun implements Observer.
func (t tee) EndRun(res *Result) {
	for _, o := range t {
		o.EndRun(res)
	}
}

// RunRecorded runs cfg with a fresh recorder keeping the first
// traceCap lifecycle events, teed in front of cfg.Observer when one is
// set.
func RunRecorded(cfg Config, traceCap int) (*Result, *EventRecorder, error) {
	rec := &EventRecorder{Cap: traceCap}
	if cfg.Observer != nil {
		cfg.Observer = tee{rec, cfg.Observer}
	} else {
		cfg.Observer = rec
	}
	res, err := Run(cfg)
	return res, rec, err
}
