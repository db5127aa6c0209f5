package nettransport

import (
	"time"

	"skipper/internal/obsv"
)

// options collects the tunables shared by Dial, NewFleetHub and NewHub.
// They accept the same Option type; an option irrelevant to one side is
// simply ignored there (WithDataPlane has no meaning on the hub).
type options struct {
	heartbeat time.Duration
	meshWait  time.Duration
	dataPlane string // peer-listener network: "auto" (default), "tcp", "unix", "shm"
	trace     *obsv.Recorder
}

// Option configures a Client (Dial) or a hub (NewFleetHub, NewHub).
type Option func(*options)

// WithHeartbeat arms liveness heartbeats at interval d. On a client, a
// heartbeat control frame is sent to the hub every d; on the hub, a
// monitor declares a connection dead when no frame at all (heartbeat or
// data) has arrived for 3d — catching processes that hang or vanish
// without closing their socket, which plain TCP can take minutes to
// notice. Both sides of a deployment must agree on the interval (pass the
// same option everywhere, like the schedule fingerprint): a monitoring hub
// over non-heartbeating idle clients would declare false deaths. Zero
// disables (the default) — death detection then relies on connection EOF.
func WithHeartbeat(d time.Duration) Option {
	return func(o *options) { o.heartbeat = d }
}

// WithMeshWaitTimeout bounds how long a remote Send waits for the
// deployment to attach (default 30s): on a client, for the hub's peers map;
// on a hub, for every processor of the sending session. Past the bound the
// Send fails its endpoint with a diagnostic instead of hanging.
func WithMeshWaitTimeout(d time.Duration) Option {
	return func(o *options) { o.meshWait = d }
}

// WithDataPlane pins the network a client's peer data listener binds:
// "tcp", "unix", "shm", or "auto" (the default — unix when the control
// connection shows the hub is on this host, tcp otherwise). A node of a
// multi-host deployment that happens to share the coordinator's machine
// should pass "tcp": peers on other hosts cannot dial a unix path. "shm"
// layers the shared-memory slab-ring upgrade (DESIGN.md §9) on unix
// sockets: the control connection and every same-host peer connection
// negotiate a per-connection mmap'd ring and move their frame streams off
// the kernel, falling back to the plain socket when the remote end is not
// on this host or a ring fails to map. Explicit rather than part of
// "auto" because the rings cost ~8MiB of tmpfs per connection pair.
// Client-side only.
func WithDataPlane(network string) Option {
	return func(o *options) { o.dataPlane = network }
}

// WithTrace arms the event recorder before any traffic can flow. SetTrace
// exists for arming mid-lifecycle, but a client's read and accept loops
// start inside Dial — a peer's first frame can land before the caller gets
// the *Client back, and an event recorded by nobody is a completeness hole
// (TestTraceCompleteness found exactly that race on the fastest planes).
// On NewHub the recorder is installed on the hub's single session the same
// way, before any node can attach to it. Nil is the untraced default.
func WithTrace(r *obsv.Recorder) Option {
	return func(o *options) { o.trace = r }
}

func buildOptions(opts []Option) options {
	o := options{meshWait: defaultMeshWaitTimeout, dataPlane: "auto"}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
