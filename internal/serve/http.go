package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"skipper/internal/distrib"
	"skipper/internal/obsv"
)

// JobView is the API representation of one job.
//
//	POST   /jobs      — body distrib.Job, reply 202 {"id":...} (429 queue full)
//	GET    /jobs      — every job, submission order
//	GET    /jobs/{id} — one job
//	DELETE /jobs/{id} — cancel (queued: immediate; running: executive abort)
//
// /metrics, /healthz and /varz ride the same listener.
type JobView struct {
	ID     string      `json:"id"`
	Status string      `json:"status"`
	Spec   distrib.Job `json:"spec"`
	// Workers are the fleet members hosting the job's remote processors.
	Workers []string `json:"workers,omitempty"`
	// Requeues counts re-runs forced by worker deaths.
	Requeues int    `json:"requeues,omitempty"`
	Error    string `json:"error,omitempty"`
	// Frames and Digest summarize a done job's results: iteration count and
	// the FNV-1a fold of every tracked mark — equal digests mean
	// bit-identical tracking output.
	Frames int    `json:"frames,omitempty"`
	Digest string `json:"digest,omitempty"`
	// Vehicles is the number of locked vehicles in the final frame.
	Vehicles  int    `json:"vehicles,omitempty"`
	ElapsedMS int64  `json:"elapsedMs,omitempty"`
	Submitted string `json:"submitted,omitempty"`
	// Started is the last dispatch time (re-dispatches overwrite it); its
	// ordering across jobs is the FIFO evidence the scheduler tests pin.
	Started string `json:"started,omitempty"`
}

// snapshotJob renders a job under the server lock.
func (s *Server) snapshotJob(st *jobState) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotJobLocked(st)
}

func (s *Server) snapshotJobLocked(st *jobState) JobView {
	v := JobView{
		ID:        st.id,
		Status:    st.status,
		Spec:      st.job,
		Requeues:  st.requeues,
		Error:     st.err,
		Submitted: st.submitted.Format(time.RFC3339Nano),
	}
	v.Workers = append(v.Workers, st.workers...)
	sort.Strings(v.Workers)
	if st.status == StatusDone {
		v.Frames = len(st.results)
		v.Digest = fmt.Sprintf("%016x", st.digest)
		if n := len(st.results); n > 0 {
			v.Vehicles = st.results[n-1].Vehicles
		}
	}
	if !st.started.IsZero() {
		v.Started = st.started.Format(time.RFC3339Nano)
	}
	if !st.finished.IsZero() && !st.started.IsZero() {
		v.ElapsedMS = st.finished.Sub(st.started).Milliseconds()
	}
	return v
}

// Job returns the API view of one job.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	st, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return s.snapshotJob(st), true
}

// JobTrace assembles a traced job's per-attempt timelines, oldest attempt
// first: each entry merges the hub-side snapshot (or a live mid-run
// snapshot) with every worker snapshot that came home for that attempt,
// clock-aligned onto the hub's wall clock. ok reports whether the job
// exists; a job submitted without "trace":true yields an empty slice.
func (s *Server) JobTrace(id string) ([]*obsv.Trace, bool) {
	s.mu.Lock()
	st, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	type attSnap struct {
		salt   uint64
		traces []*obsv.Trace
		sealed bool
	}
	snaps := make([]attSnap, 0, len(st.attempts))
	for _, att := range st.attempts {
		sn := attSnap{salt: att.salt, sealed: att.hub != nil}
		if att.hub != nil {
			sn.traces = append(sn.traces, att.hub)
		} else if att.rec != nil {
			sn.traces = append(sn.traces, att.rec.Snapshot())
		}
		sn.traces = append(sn.traces, att.workers...)
		snaps = append(snaps, sn)
	}
	s.mu.Unlock()

	out := make([]*obsv.Trace, 0, len(snaps))
	for i, sn := range snaps {
		m := obsv.Merge(sn.traces)
		if m == nil {
			continue
		}
		if m.Meta == nil {
			m.Meta = map[string]string{}
		}
		m.Meta["job"] = id
		m.Meta["attempt"] = fmt.Sprintf("%d", i+1)
		m.Meta["salt"] = fmt.Sprintf("%d", sn.salt)
		if !sn.sealed {
			m.Meta["partial"] = "true" // attempt still running at snapshot time
		}
		out = append(out, m)
	}
	return out, true
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.snapshotJobLocked(s.jobs[id]))
	}
	return out
}

func (s *Server) startHTTP() error {
	mux := obsv.DebugMux(s.metrics, s.health, s.varz)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return fmt.Errorf("serve: http listener: %w", err)
	}
	s.httpLn = ln
	s.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.httpSrv.Serve(ln)
	}()
	return nil
}

func (s *Server) health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrClosed
	}
	return nil
}

// varz is the free-form status page: the fleet roster and every job.
func (s *Server) varz() map[string]any {
	s.mu.Lock()
	workers := make([]map[string]any, 0, len(s.workers))
	names := make([]string, 0, len(s.workers))
	for name := range s.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := s.workers[name]
		jobs := make([]string, 0, len(w.jobs))
		for id := range w.jobs {
			jobs = append(jobs, id)
		}
		sort.Strings(jobs)
		workers = append(workers, map[string]any{"name": name, "jobs": jobs})
	}
	// Per-session rows: one per running job attempt, so /varz shows what
	// each hub session is (job, attempt, salt, placement, tracing), not just
	// the roster aggregate.
	sessions := make([]map[string]any, 0, s.running)
	for _, id := range s.order {
		st := s.jobs[id]
		if st.status != StatusRunning {
			continue
		}
		ws := append([]string(nil), st.workers...)
		sort.Strings(ws)
		row := map[string]any{
			"job":     st.id,
			"attempt": st.requeues + 1,
			"salt":    st.salt,
			"workers": ws,
			"traced":  st.job.Trace,
		}
		if !st.started.IsZero() {
			row["runningMs"] = time.Since(st.started).Milliseconds()
		}
		sessions = append(sessions, row)
	}
	queued := len(s.queue)
	running := s.running
	s.mu.Unlock()
	fleet := map[string]any{"workers": workers, "sessions": s.hubSessions()}
	if s.hub != nil {
		fleet["hubAddr"] = s.hub.Addr()
	}
	return map[string]any{
		"fleet":    fleet,
		"sessions": sessions,
		"jobs":     s.Jobs(),
		"queued":   queued,
		"running":  running,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleJobs serves the collection: POST submits, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var job distrib.Job
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&job); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
			return
		}
		id, err := s.Submit(job)
		switch {
		case errors.Is(err, ErrQueueFull):
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, err)
		case err != nil:
			writeErr(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": StatusQueued})
		}
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Jobs())
	default:
		w.Header().Set("Allow", "GET, POST")
		writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
	}
}

// handleJob serves one job: GET inspects, DELETE cancels, and the
// /jobs/{id}/trace and /jobs/{id}/trace.svg sub-resources serve a traced
// job's merged timeline (Chrome trace JSON with one pid per attempt, and
// the measured chronogram).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if sub := ""; strings.Contains(id, "/") {
		if i := strings.IndexByte(id, '/'); i >= 0 {
			id, sub = id[:i], id[i+1:]
		}
		if id == "" || (sub != "trace" && sub != "trace.svg") {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
			return
		}
		s.handleJobTrace(w, r, id, sub == "trace.svg")
		return
	}
	if id == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	switch r.Method {
	case http.MethodGet:
		v, ok := s.Job(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, v)
	case http.MethodDelete:
		changed, err := s.Cancel(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		v, _ := s.Job(id)
		if !changed {
			// Already terminal: idempotent no-op, report the state as is.
			writeJSON(w, http.StatusConflict, v)
			return
		}
		writeJSON(w, http.StatusOK, v)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
	}
}

// handleJobTrace serves a traced job's merged timeline: Chrome trace JSON
// with one pid per attempt (svg=false) or the chronogram of every attempt
// on one clock (svg=true). 404 for unknown jobs, 409 for jobs submitted
// without tracing.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request, id string, svg bool) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeErr(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
		return
	}
	attempts, ok := s.JobTrace(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	if len(attempts) == 0 {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %q was not submitted with \"trace\":true (or has not started)", id))
		return
	}
	if svg {
		merged := obsv.Merge(attempts)
		if merged == nil {
			writeErr(w, http.StatusConflict, fmt.Errorf("job %q has no trace events yet", id))
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, merged.ChronogramSVG(1200, 22))
		return
	}
	data, err := obsv.ChromeJSONAttempts(attempts)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
