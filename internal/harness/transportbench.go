package harness

import (
	"fmt"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/distrib"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// benchFingerprint is the schedule fingerprint both ends of the benchmark
// pair agree on; the hub only requires that coordinator and client claim
// the same deployment, not any particular value.
const benchFingerprint uint64 = 0x534b6950_62656e63 // "SKiPbenc"

// TransportPair is a two-processor transport set up for the farm
// round-trip benchmark: a master side hosting processor 0 and a worker
// side hosting processor 1. For "mem" both sides are the same in-process
// transport; for "tcp" they are a hub and a client talking over a real
// localhost socket, so every task and reply pays the codec + syscall cost
// a multi-process deployment pays.
type TransportPair struct {
	Master transport.Transport
	Worker transport.Transport
	close  func()
}

// Close tears the pair down (client before hub for the tcp backend).
func (p *TransportPair) Close() { p.close() }

// NewTransportPair builds the benchmark pair for the named backend
// ("mem", "tcp", "unix" or "shm") on a two-processor ring. The pair's
// round trips ride the control connection (processor 0 lives on the hub),
// which on "shm" is exactly the connection the ring upgrade covers — so
// the bench measures the mmap'd slab path, not a socket.
func NewTransportPair(kind string) (*TransportPair, error) {
	a := arch.Ring(2)
	switch kind {
	case "mem":
		tr := memtransport.New(a)
		return &TransportPair{Master: tr, Worker: tr, close: func() { tr.Close() }}, nil
	case "tcp", "unix", "shm":
		listen, cleanup, err := distrib.HubListenAddr(kind)
		if err != nil {
			return nil, err
		}
		hub, err := nettransport.NewHub(listen, a, benchFingerprint, []arch.ProcID{0})
		if err != nil {
			cleanup()
			return nil, err
		}
		var opts []nettransport.Option
		if kind == "shm" {
			opts = append(opts, nettransport.WithDataPlane("shm"))
		}
		cl, err := nettransport.Dial(hub.Addr(), benchFingerprint, []arch.ProcID{1}, 5*time.Second, opts...)
		if err != nil {
			hub.Close()
			cleanup()
			return nil, err
		}
		return &TransportPair{
			Master: hub,
			Worker: cl,
			close:  func() { cl.Close(); hub.Close(); cleanup() },
		}, nil
	}
	return nil, fmt.Errorf("harness: unknown transport %q", kind)
}

// BenchFarmRoundTrip measures one df-farm task/reply round trip over the
// pair: the master on processor 0 sends a task carrying payload to the
// worker on processor 1, which echoes it back as a reply — exactly the
// message pattern OpMaster/OpWorker exchange per window, so the mem-vs-tcp
// delta is the per-window cost of going multi-process.
func BenchFarmRoundTrip(b *testing.B, pair *TransportPair, payload Payload) {
	stop := startEchoWorker(pair, payload)
	replies := pair.Master.Receiver(0, transport.ReplyKey(benchFarm))
	b.ResetTimer()
	err := masterRoundTrips(pair, payload, replies, b.N)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	stop()
}

// FarmRoundTrips drives n task/reply round trips over the pair outside any
// benchmark timer — the shape the arena-recycling test uses to measure
// ArenaStats deltas around a known number of window decodes.
func FarmRoundTrips(pair *TransportPair, payload Payload, n int) error {
	stop := startEchoWorker(pair, payload)
	replies := pair.Master.Receiver(0, transport.ReplyKey(benchFarm))
	err := masterRoundTrips(pair, payload, replies, n)
	stop()
	return err
}

// benchFarm and benchWidx name the single farm/worker slot the round-trip
// loop exercises.
const benchFarm, benchWidx = 0, 0

// startEchoWorker spawns the worker-side echo loop on processor 1 and
// returns a stop function that sends the sentinel and waits for exit.
func startEchoWorker(pair *TransportPair, payload Payload) (stop func()) {
	taskKey := transport.TaskKey(benchFarm, benchWidx)
	replyKey := transport.ReplyKey(benchFarm)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tasks := pair.Worker.Receiver(1, taskKey)
		for {
			v, ok := tasks.Recv()
			if !ok {
				return
			}
			if _, stop := v.(transport.Sentinel); stop {
				return
			}
			tk := v.(transport.Task)
			pair.Worker.Send(1, 0, replyKey, transport.Reply{Widx: benchWidx, Task: tk.Idx, V: tk.V})
			// Send has captured the payload (net backend) or handed the
			// very value onward by reference (mem backend, where Recycle
			// recognises and skips it) — the worker's decoded copy can go
			// back to the frame arena, as any real consumer would do.
			if payload.Recycle != nil {
				payload.Recycle(tk.V)
			}
		}
	}()
	return func() {
		pair.Master.Send(0, 1, taskKey, transport.Sentinel{})
		<-done
	}
}

// masterRoundTrips runs the master-side send/recv loop: n tasks to the
// worker, each reply recycled the way the coordinator's merge consumes and
// releases its window — the master-side Recycle is what keeps decoded reply
// images cycling through the vision arena instead of leaking to the GC.
func masterRoundTrips(pair *TransportPair, payload Payload, replies transport.Receiver, n int) error {
	taskKey := transport.TaskKey(benchFarm, benchWidx)
	for i := 0; i < n; i++ {
		pair.Master.Send(0, 1, taskKey, transport.Task{Idx: i, V: payload.Gen(i)})
		v, ok := replies.Recv()
		if !ok {
			return fmt.Errorf("harness: reply channel aborted mid-round-trip")
		}
		if payload.Recycle != nil {
			payload.Recycle(v.(transport.Reply).V)
		}
	}
	return nil
}

// Payload drives BenchFarmRoundTrip: Gen produces the value shipped per
// task, Recycle (optional) disposes of a received copy the way a real
// consumer would — returning pooled buffers to their arena.
type Payload struct {
	Gen     func(i int) interface{}
	Recycle func(v interface{})
}

// BenchWindowPayload returns a payload shipping the same 512×64 image band
// the ring(8) tracking schedule sends per df window, so the round-trip
// figures reflect real frame traffic rather than scalar echo. Received
// copies are recycled into the frame arena; the generator's own window (the
// mem backend delivers it by reference) is a view of the frame, which
// PutImage leaves alone.
func BenchWindowPayload() Payload {
	frame := video.NewScene(512, 512, 3, 1).Next()
	win := vision.Extract(frame, vision.Rect{X0: 0, Y0: 0, X1: 512, Y1: 64})
	return Payload{
		Gen: func(int) interface{} { return win },
		Recycle: func(v interface{}) {
			if w, ok := v.(vision.Window); ok {
				vision.PutImage(w.Img)
			}
		},
	}
}

// BenchScalarPayload returns a payload shipping one int — the floor cost
// of a round trip with negligible codec work.
func BenchScalarPayload() Payload {
	return Payload{Gen: func(i int) interface{} { return i }}
}
