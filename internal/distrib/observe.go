package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"skipper/internal/exec"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
	"skipper/internal/obsv"
	"skipper/internal/vision"
)

// observer is one classic process's debug HTTP server (when the spec names
// a debug address); the zero value is ready and close is safe either way.
type observer struct {
	dbg *obsv.DebugServer
}

// queueDepther is implemented by both transport backends.
type queueDepther interface{ QueueDepth() int }

// newRecorder mints a classic run's event recorder when the spec names a
// trace directory, nil otherwise.
func (d *Deployment) newRecorder() *obsv.Recorder {
	if d.TraceDir == "" {
		return nil
	}
	return obsv.NewRecorder(d.Sched.Arch.N, 0)
}

// start is the classic paths' machine hook: it creates the trace directory
// and brings up the debug endpoint for machine m running over transport t.
// sess is non-nil only on the coordinator, whose /varz then carries the
// cluster-aggregate view. The debug server starts serving immediately, so a
// scrape can land while the cluster is attaching and mid-run.
func (ob *observer) start(sp Spec, t transport.Transport, m *exec.Machine, sess *nettransport.Session) error {
	if sp.TraceDir != "" {
		if err := os.MkdirAll(sp.TraceDir, 0o755); err != nil {
			return fmt.Errorf("distrib: trace dir: %w", err)
		}
	}
	if sp.DebugAddr != "" {
		mx := obsv.NewMetrics()
		m.OpLatency = mx.Histogram("skipper_op_latency_seconds",
			"Executive operation latency in seconds.", nil)
		stats := func(f func(transport.Stats) int64) func() int64 {
			return func() int64 { return f(t.Stats()) }
		}
		mx.CounterFunc("skipper_transport_messages_total",
			"Payloads injected via transport Send.",
			stats(func(s transport.Stats) int64 { return s.Messages }))
		mx.CounterFunc("skipper_transport_hops_total",
			"Link traversals: architecture-graph links accounted per message (mem); always zero on net, whose hub relays nothing.",
			stats(func(s transport.Stats) int64 { return s.Hops }))
		mx.CounterFunc("skipper_transport_direct_total",
			"Frames shipped point-to-point over the peer mesh, bypassing the hub.",
			stats(func(s transport.Stats) int64 { return s.Direct }))
		mx.CounterFunc("skipper_transport_bytes_sent_total",
			"Payload bytes injected via transport Send.",
			stats(func(s transport.Stats) int64 { return s.BytesSent }))
		mx.CounterFunc("skipper_transport_bytes_recv_total",
			"Payload bytes delivered to local consumers.",
			stats(func(s transport.Stats) int64 { return s.BytesRecv }))
		mx.CounterFunc("skipper_peer_failures_total",
			"Processors declared dead by failure detection (heartbeat, EOF or task deadline).",
			m.FTFailures)
		mx.CounterFunc("skipper_task_redispatches_total",
			"Farm tasks re-dispatched onto surviving workers after their worker died.",
			m.FTRedispatches)
		mx.CounterFunc("skipper_task_speculations_total",
			"Straggler tasks speculatively duplicated onto idle workers.",
			m.FTSpeculations)
		mx.CounterFunc("skipper_speculation_wins_total",
			"Speculative duplicates whose reply beat the original worker's.",
			m.FTSpeculationWins)
		mx.CounterFunc("skipper_false_suspicions_total",
			"Deadline-suspected workers whose reply later arrived: the deadline is too tight.",
			m.FTFalseSuspicions)
		m.StageLatency = mx.StageObserver("skipper_pipeline_stage",
			"Pipelined itermem stage busy time per frame in seconds.")
		mx.CounterFunc("skipper_shm_doorbell_arms_total",
			"Armed-sleep transitions on shm rings (a spin window expired).",
			func() int64 { a, _ := nettransport.ShmStats(); return a })
		mx.CounterFunc("skipper_shm_doorbell_rings_total",
			"Doorbell wakeups delivered to a sleeping shm peer.",
			func() int64 { _, r := nettransport.ShmStats(); return r })
		if qd, ok := t.(queueDepther); ok {
			mx.GaugeFunc("skipper_mailbox_queue_depth",
				"Delivered-but-unconsumed values across local mailboxes.",
				func() float64 { return float64(qd.QueueDepth()) })
		}
		mx.CounterFunc("skipper_frame_arena_hits_total",
			"Image requests satisfied by pooled pixel memory.",
			func() int64 { h, _ := vision.ArenaStats(); return h })
		mx.CounterFunc("skipper_frame_arena_misses_total",
			"Image requests that allocated a fresh pixel buffer.",
			func() int64 { _, m := vision.ArenaStats(); return m })
		mx.GaugeFunc("skipper_frame_arena_hit_ratio",
			"Fraction of image requests served from the arena.",
			func() float64 {
				h, m := vision.ArenaStats()
				if h+m == 0 {
					return 0
				}
				return float64(h) / float64(h+m)
			})
		if rec := m.Trace; rec != nil {
			mx.CounterFunc("skipper_trace_dropped_total",
				"Trace events lost to ring wrap-around.",
				rec.Dropped)
		}
		varz := func() map[string]any {
			v := map[string]any{
				"spec":  sp,
				"stats": t.Stats(),
			}
			h, ms := vision.ArenaStats()
			v["arena"] = map[string]int64{"hits": h, "misses": ms}
			if sess != nil {
				v["cluster"] = sess.ClusterInfo()
			}
			return v
		}
		dbg, err := obsv.ServeDebug(sp.DebugAddr, mx, t.Err, varz)
		if err != nil {
			return fmt.Errorf("distrib: debug listener: %w", err)
		}
		ob.dbg = dbg
	}
	return nil
}

// writeTrace exports a classic run's sealed trace (nil when the run was
// untraced) as TraceDir/name. The run's own error wins over a write failure.
func (sp Spec) writeTrace(tr *obsv.Trace, name string, runErr error) error {
	if tr == nil {
		return runErr
	}
	if err := tr.WriteFile(filepath.Join(sp.TraceDir, name)); err != nil && runErr == nil {
		return err
	}
	return runErr
}

// close stops the debug server, if one was started.
func (ob *observer) close() {
	if ob.dbg != nil {
		ob.dbg.Close()
	}
}

// TraceMeta is the deployment meta embedded in every trace: the whole Job,
// so the trace tooling can recompile the exact executive that was traced
// (SpecFromMeta) and diff measured timings against the predicted schedule.
// The key is "spec" because serve tags its traces' "job" with the job id.
func (sp Spec) TraceMeta() map[string]string {
	spec, _ := json.Marshal(sp.Job) // a struct of scalars cannot fail to marshal
	return map[string]string{"app": "tracking", "spec": string(spec)}
}

// SpecFromMeta reconstructs the deployment spec a trace was recorded under.
func SpecFromMeta(meta map[string]string) (Spec, error) {
	var sp Spec
	if len(meta) == 0 {
		return sp, errors.New("distrib: trace carries no deployment meta")
	}
	if app := meta["app"]; app != "tracking" {
		return sp, fmt.Errorf("distrib: trace meta names unknown app %q", app)
	}
	if err := json.Unmarshal([]byte(meta["spec"]), &sp.Job); err != nil {
		return sp, fmt.Errorf("distrib: trace meta spec: %w", err)
	}
	return sp, nil
}
