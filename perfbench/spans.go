package main

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"microfaas/internal/core"
)

// seqHeader carries the client's request number so a gateway handler span
// can be matched to its client span. Every request sends it, traced or not,
// so both kinds of run put the same bytes on the wire.
const seqHeader = "X-Bench-Seq"

// tolerance is how far a child span may poke out of its parent before the
// traced run's self-check fails: the two clocks involved (the cluster's
// runtime clock and time.Now) read the same monotonic source, so only
// rounding separates them.
const tolerance = time.Microsecond

// tap records spans at the public boundaries of the live stack, from the
// benchmark's side of each call: the gateway's Handler().ServeHTTP, and
// core.Worker.RunJob up to its done callback. Recording is off until on is
// set, so one process can measure an untraced and a traced window.
type tap struct {
	on atomic.Bool
	rt core.WallRuntime

	mu       sync.Mutex
	handlers map[int64]span    // by client request number
	jobs     map[int64]jobSpan // by job ID
}

type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// jobSpan is one job's worker-side timing. Submitted, start and end are on
// the cluster's runtime clock; exec is the worker's reported Result.Exec.
type jobSpan struct {
	submitted, start, end, exec time.Duration
}

func newTap(rt core.WallRuntime) *tap {
	return &tap{rt: rt, handlers: map[int64]span{}, jobs: map[int64]jobSpan{}}
}

// handler wraps the gateway's handler with a span per request.
func (t *tap) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		if err != nil {
			return
		}
		t.mu.Lock()
		t.handlers[seq] = span{start, end}
		t.mu.Unlock()
	})
}

// worker wraps one worker so its RunJob calls are timed.
func (t *tap) worker(w core.Worker) core.Worker { return &tappedWorker{Worker: w, t: t} }

type tappedWorker struct {
	core.Worker
	t *tap
}

func (w *tappedWorker) RunJob(job core.Job, done func(core.Result)) {
	t := w.t
	if !t.on.Load() {
		w.Worker.RunJob(job, done)
		return
	}
	start := t.rt.Now()
	w.Worker.RunJob(job, func(res core.Result) {
		end := t.rt.Now()
		t.mu.Lock()
		t.jobs[job.ID] = jobSpan{submitted: job.SubmittedAt, start: start, end: end, exec: res.Exec}
		t.mu.Unlock()
		done(res)
	})
}

// abs converts a runtime-clock offset to an instant comparable with the
// handler and client spans.
func (t *tap) abs(d time.Duration) time.Time { return t.rt.Start.Add(d) }

// clientSpan is one invocation as the load generator saw it.
type clientSpan struct {
	seq   int64
	jobID int64
	span
}

// layerTimes is one invocation's time split by layer. The self times
// telescope: HTTP + Gateway + Queue + Transport + Exec == Client.
type layerTimes struct {
	Client, Handler, Queue, RTT, Exec time.Duration
	HTTP, Gateway, Transport          time.Duration
}

// split subtracts each layer's child spans from its own to get self
// times. ok is false when a span is missing or a child span does not lie
// within its parent (beyond tolerance).
func split(c span, h span, j jobSpan, abs func(time.Duration) time.Time) (lt layerTimes, ok bool) {
	lt = layerTimes{
		Client:  c.dur(),
		Handler: h.dur(),
		Queue:   j.start - j.submitted,
		RTT:     j.end - j.start,
		Exec:    j.exec,
	}
	lt.HTTP = lt.Client - lt.Handler
	lt.Gateway = lt.Handler - lt.Queue - lt.RTT
	lt.Transport = lt.RTT - lt.Exec
	within := func(outer, inner span) bool {
		return inner.start.Sub(outer.start) >= -tolerance && outer.end.Sub(inner.end) >= -tolerance
	}
	job := span{abs(j.submitted), abs(j.end)}
	ok = within(c, h) && within(h, job) && lt.Queue >= -tolerance && lt.Transport >= -tolerance
	return lt, ok
}

// layers matches client spans to handler and job spans and splits each.
// It returns the split invocations and how many could not be matched or
// did not nest.
func (t *tap) layers(cs []clientSpan) (out []layerTimes, bad int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range cs {
		h, okH := t.handlers[c.seq]
		j, okJ := t.jobs[c.jobID]
		if !okH || !okJ {
			bad++
			continue
		}
		lt, ok := split(c.span, h, j, t.abs)
		if !ok {
			bad++
			continue
		}
		out = append(out, lt)
	}
	return out, bad
}

// handlerSpan returns the recorded handler span for a request number.
func (t *tap) handlerSpan(seq int64) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.handlers[seq]
	return s, ok
}
