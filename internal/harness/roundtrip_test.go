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
	"skipper/internal/obsv"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// pairFingerprint is the schedule fingerprint both ends of a transportPair
// claim; the hub only requires that they agree, not any particular value.
const pairFingerprint uint64 = 0x534b6950_62656e63 // "SKiPbenc"

// transportPair is a two-processor ring set up for farm round trips: a
// master side hosting processor 0 and a worker side hosting processor 1.
// For "mem" both sides are the same in-process transport; for the net
// backends they are a hub and a client on a real localhost socket, so every
// task and reply pays the codec + syscall cost of a multi-process run.
type transportPair struct {
	master, worker transport.Transport
}

// newTransportPair builds the pair for the named backend and tears it down
// (client before hub) when the test or benchmark ends. Processor 0 lives on
// the hub, so the round trips ride the control connection — on "shm" exactly
// the connection the ring upgrade covers.
func newTransportPair(tb testing.TB, kind string) *transportPair {
	tb.Helper()
	a := arch.Ring(2)
	if kind == "mem" {
		tr := memtransport.New(a)
		tb.Cleanup(func() { tr.Close() })
		return &transportPair{master: tr, worker: tr}
	}
	listen, cleanup, err := distrib.HubListenAddr(kind)
	if err != nil {
		tb.Fatal(err)
	}
	hub, err := nettransport.NewHub(listen, a, pairFingerprint, []arch.ProcID{0})
	if err != nil {
		cleanup()
		tb.Fatal(err)
	}
	var opts []nettransport.Option
	if kind == "shm" {
		opts = append(opts, nettransport.WithDataPlane("shm"))
	}
	cl, err := nettransport.Dial(hub.Addr(), pairFingerprint, []arch.ProcID{1}, 5*time.Second, opts...)
	if err != nil {
		hub.Close()
		cleanup()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close(); hub.Close(); cleanup() })
	return &transportPair{master: hub, worker: cl}
}

// payload drives farmRoundTrips: gen produces the value shipped per task,
// recycle (optional) disposes of a received copy the way a real consumer
// would — returning pooled buffers to their arena.
type payload struct {
	gen     func(i int) interface{}
	recycle func(v interface{})
}

// scalarPayload ships one int: the floor cost of a round trip.
func scalarPayload() payload {
	return payload{gen: func(i int) interface{} { return i }}
}

// windowPayload ships the 512×64 image band the ring(8) tracking schedule
// sends per df window. Received copies are recycled into the frame arena;
// the generator's own window (the mem backend delivers it by reference) is
// a view of the frame, which PutImage leaves alone.
func windowPayload() payload {
	frame := video.NewScene(512, 512, 3, 1).Next()
	win := vision.Extract(frame, vision.Rect{X0: 0, Y0: 0, X1: 512, Y1: 64})
	return payload{
		gen: func(int) interface{} { return win },
		recycle: func(v interface{}) {
			if w, ok := v.(vision.Window); ok {
				vision.PutImage(w.Img)
			}
		},
	}
}

// farmRoundTrips drives n df-farm task/reply round trips over the pair: the
// master on processor 0 sends a task carrying the payload to an echo worker
// on processor 1 — the message pattern OpMaster/OpWorker exchange per
// window — and both sides recycle their decoded copy, as the executive's
// consumers do.
func farmRoundTrips(pair *transportPair, pl payload, n int) error {
	const farm, widx = 0, 0
	taskKey, replyKey := transport.TaskKey(farm, widx), transport.ReplyKey(farm)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tasks := pair.worker.Receiver(1, taskKey)
		for {
			v, ok := tasks.Recv()
			if !ok {
				return
			}
			tk, isTask := v.(transport.Task)
			if !isTask {
				return // the sentinel
			}
			pair.worker.Send(1, 0, replyKey, transport.Reply{Widx: widx, Task: tk.Idx, V: tk.V})
			// Send has captured the payload (net) or handed the very value
			// onward by reference (mem, where recycle skips it).
			if pl.recycle != nil {
				pl.recycle(tk.V)
			}
		}
	}()
	defer func() {
		pair.master.Send(0, 1, taskKey, transport.Sentinel{})
		<-done
	}()
	replies := pair.master.Receiver(0, replyKey)
	for i := 0; i < n; i++ {
		pair.master.Send(0, 1, taskKey, transport.Task{Idx: i, V: pl.gen(i)})
		v, ok := replies.Recv()
		if !ok {
			return fmt.Errorf("reply channel aborted at round trip %d", i)
		}
		if pl.recycle != nil {
			pl.recycle(v.(transport.Reply).V)
		}
	}
	return nil
}

// benchRoundTrips times b.N round trips. The echo worker's start and stop
// (one goroutine, one sentinel) fall inside the timer and b.N amortises
// them; the pair's bring-up does not.
func benchRoundTrips(b *testing.B, pair *transportPair, pl payload) {
	b.ReportAllocs()
	b.ResetTimer()
	if err := farmRoundTrips(pair, pl, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFarmRoundTrip measures one farm round trip over each executive
// transport. The scalar payload is the round-trip floor; the window payload
// is real frame traffic, so the mem-vs-net delta is the per-window cost of
// going multi-process.
func BenchmarkFarmRoundTrip(b *testing.B) {
	payloads := []struct {
		name string
		mk   func() payload
	}{{"Scalar", scalarPayload}, {"Window512x64", windowPayload}}
	for _, tr := range Transports {
		for _, pl := range payloads {
			b.Run(tr+"/"+pl.name, func(b *testing.B) {
				benchRoundTrips(b, newTransportPair(b, tr), pl.mk())
			})
		}
	}
}

// BenchmarkFarmRoundTripTraced is the price of the event recorder on the
// identical round trip, disarmed vs armed: mem with the scalar payload (the
// hot path where a few stores per message show most) and shm with the
// window payload and flight-sized rings on both ends — what every fleet
// worker pays for its always-on flight recorder.
func BenchmarkFarmRoundTripTraced(b *testing.B) {
	cases := []struct {
		tr   string
		ring int
		mk   func() payload
	}{{"mem", 1 << 12, scalarPayload}, {"shm", obsv.FlightRingSize, windowPayload}}
	for _, c := range cases {
		for _, mode := range []string{"off", "on"} {
			b.Run(c.tr+"/"+mode, func(b *testing.B) {
				pair := newTransportPair(b, c.tr)
				if mode == "on" {
					pair.master.(transport.TraceSink).SetTrace(obsv.NewRecorder(2, c.ring))
					if pair.worker != pair.master {
						pair.worker.(transport.TraceSink).SetTrace(obsv.NewRecorder(2, c.ring))
					}
				}
				benchRoundTrips(b, pair, c.mk())
			})
		}
	}
}
