package main

import (
	"fmt"
	"sync"
	"time"
)

// runTimeout is the executive watchdog for one Run call.
const runTimeout = 170 * time.Second

// compiled is one process's compilation of an application, with the time
// each compiler layer took.
type compiled struct {
	sched                       *sutSchedule
	reg                         *sutRegistry
	parseCheck, expand, mapping time.Duration
}

// compile takes the application through parser → types → expand →
// syndex.Map on ring(nproc), against a fresh registry.
func compile(a *app, src *frameSource) (*compiled, error) {
	c := &compiled{reg: a.newRegistry(src)}
	t0 := time.Now()
	prog, err := sutParse(a.source)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", a.name, err)
	}
	info, err := sutCheck(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: type check: %w", a.name, err)
	}
	t1 := time.Now()
	res, err := sutExpand(prog, info, c.reg)
	if err != nil {
		return nil, fmt.Errorf("%s: expand: %w", a.name, err)
	}
	t2 := time.Now()
	c.sched, err = sutMap(res.Graph, sutRing(nproc), c.reg, sutStructured)
	if err != nil {
		return nil, fmt.Errorf("%s: map: %w", a.name, err)
	}
	c.parseCheck, c.expand, c.mapping = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return c, nil
}

// node is one process of a deployment: its own compilation, transport
// endpoint and the processors it hosts.
type node struct {
	*compiled
	t     sutTransport
	local []sutProc
}

// deployment is an application brought up on a transport, ready to run.
// On "mem" one node hosts all processors over the in-process transport. On
// "tcp", "unix" and "shm" processor 0 hosts the hub and every other
// processor is its own in-process node with its own compilation and
// registry, attached over real sockets (or slab rings) — the isolation one
// OS process per processor has.
type deployment struct {
	nodes    []*node
	app      *app
	pipeline bool
	bringup  time.Duration // transport bring-up: listen → every node attached
	cleanup  func()
}

// deploy compiles the application on every node and brings the transport
// up. wrap, when non-nil, instruments each node's registry before it runs.
func deploy(a *app, kind string, src *frameSource, pipeline bool, wrap func(*sutRegistry)) (*deployment, error) {
	first, err := compile(a, src)
	if err != nil {
		return nil, err
	}
	d := &deployment{app: a, pipeline: pipeline, cleanup: func() {}}
	t0 := time.Now()
	if kind == "mem" {
		all := make([]sutProc, nproc)
		for i := range all {
			all[i] = sutProc(i)
		}
		d.nodes = []*node{{compiled: first, t: sutMemNet(first.sched.Arch), local: all}}
	} else {
		listen, cleanup, err := sutHubAddr(kind)
		if err != nil {
			return nil, err
		}
		d.cleanup = cleanup
		hub, err := sutHub(listen, first.sched.Arch, first.sched.Fingerprint(), []sutProc{0}, sutDataPlane(kind))
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("%s hub: %w", kind, err)
		}
		d.nodes = make([]*node, nproc)
		d.nodes[0] = &node{compiled: first, t: hub, local: []sutProc{0}}
		errs := make([]error, nproc)
		var wg sync.WaitGroup
		for p := 1; p < nproc; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				c, err := compile(a, src)
				if err != nil {
					errs[p] = err
					return
				}
				local := []sutProc{sutProc(p)}
				cl, err := sutDial(hub.Addr(), c.sched.Fingerprint(), local, 30*time.Second, sutDataPlane(kind))
				if err != nil {
					errs[p] = fmt.Errorf("%s node %d: %w", kind, p, err)
					return
				}
				d.nodes[p] = &node{compiled: c, t: cl, local: local}
			}(p)
		}
		wg.Wait()
		errs[0] = hub.WaitReady(30 * time.Second)
		for _, err := range errs {
			if err != nil {
				d.close()
				return nil, err
			}
		}
	}
	d.bringup = time.Since(t0)
	if wrap != nil {
		for _, n := range d.nodes {
			wrap(n.reg)
		}
	}
	return d, nil
}

// traffic is what the transports carried so far, summed over nodes.
type traffic struct {
	messages, direct, bytesSent int64
}

func (d *deployment) traffic() traffic {
	var tr traffic
	for _, n := range d.nodes {
		st := n.t.Stats()
		tr.messages += st.Messages
		tr.direct += st.Direct
		tr.bytesSent += st.BytesSent
	}
	return tr
}

// run executes iters frames on every node and returns the coordinator's
// result (processor 0 hosts the stream input and output).
func (d *deployment) run(iters int) (*sutRunResult, error) {
	results := make([]*sutRunResult, len(d.nodes))
	errs := make([]error, len(d.nodes))
	var wg sync.WaitGroup
	for i, n := range d.nodes {
		m := sutMachineOn(n.sched, n.reg, n.t, n.local)
		m.Pipeline = d.pipeline
		m.DeterministicFarm = d.app.orderSensitive
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.RunWithTimeout(iters, runTimeout)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return results[0], nil
}

// close tears the transports down, nodes before the hub.
func (d *deployment) close() {
	for i := len(d.nodes) - 1; i >= 0; i-- {
		if n := d.nodes[i]; n != nil {
			n.t.Close()
		}
	}
	d.cleanup()
}
