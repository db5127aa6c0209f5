package nettransport

import (
	"bufio"
	"io"
	"net"
	"time"

	"skipper/internal/exec/transport"
)

// Peer mesh: the data plane between node processes. Every client binds a
// data listener at Dial time and reports it in the handshake; once all
// processors are attached the hub broadcasts the address map and each
// client lazily dials the peers its schedule sends to. Peer connections
// are unidirectional — the dialer writes, the acceptor reads — so two
// nodes exchanging traffic in both directions hold two sockets. Liveness
// is a control-plane concern: a node death is detected by the hub (EOF
// without a detach frame on the control connection) and propagated as a
// cluster abort, so an EOF on a peer connection is always treated as the
// dialer having finished.

// peerConn returns the write connection to addr, dialing it on first use.
// The dial retries with jittered backoff inside the flushTimeout budget: a
// peer that attached to the hub has already bound its listener, so a
// refused connection here is a transient (SYN backlog pressure when the
// whole mesh comes up at once) far more often than a death.
func (cl *Client) peerConn(addr string) (*wconn, error) {
	cl.pcMu.Lock()
	defer cl.pcMu.Unlock()
	if w, ok := cl.pconns[addr]; ok {
		return w, nil
	}
	network, address := SplitNetAddr(addr)
	deadline := time.Now().Add(flushTimeout)
	bo := newBackoff()
	var c net.Conn
	var err error
	for {
		c, err = net.DialTimeout(network, address, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) || cl.closing.Load() || cl.aborted.Load() {
			return nil, err
		}
		bo.sleep()
	}
	setNoDelay(c)
	// The shm peer upgrade: a unix-socket peer is by definition on this
	// host, so a client on the shm plane creates a ring it will produce
	// into and offers it in the hello. The ack byte is read straight off
	// the conn — the dialing side of a peer connection never reads frames,
	// so no buffered reader may over-read into the doorbell stream.
	var cw wire = c
	var ring *shmRing
	shmPath := ""
	if cl.shmPlane && network == "unix" {
		if r, rerr := createShmRing(cl.fp, shmDefaultSlots); rerr == nil {
			ring, shmPath = r, r.path
		}
	}
	if err := writePeerHello(c, cl.fp, shmPath); err != nil {
		if ring != nil {
			ring.remove()
			ring.unmap()
		}
		c.Close()
		return nil, err
	}
	if ring != nil {
		var ack [1]byte
		if _, err := io.ReadFull(c, ack[:]); err != nil {
			ring.remove()
			ring.unmap()
			c.Close()
			return nil, err
		}
		ring.remove()
		if ack[0] == peerShmAck {
			cw = newShmConn(c, nil, ring)
		} else {
			ring.unmap()
		}
	}
	w := newWConn(cw, func(err error) {
		if cl.closing.Load() || cl.aborted.Load() || cl.containsPeerFailure(addr) {
			return
		}
		cl.failf("nettransport: peer %s: %v", addr, err)
	}, &cl.rec)
	cl.pconns[addr] = w
	return w, nil
}

// acceptLoop admits inbound peer connections until the listener closes.
func (cl *Client) acceptLoop() {
	defer cl.readerWG.Done()
	for {
		c, err := cl.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cl.inMu.Lock()
		cl.inbound = append(cl.inbound, c)
		cl.inMu.Unlock()
		// Close snapshots inbound before closing the conns in it: a conn
		// appended after the snapshot would never be closed and its reader
		// could block until the remote side exits. Re-checking closing after
		// the append covers that window (Close sets closing first).
		if cl.closing.Load() {
			c.Close()
			continue
		}
		cl.readerWG.Add(1)
		go cl.servePeer(c)
	}
}

// servePeer validates one inbound peer preamble and delivers its frames to
// local mailboxes until the dialer closes.
func (cl *Client) servePeer(c net.Conn) {
	defer cl.readerWG.Done()
	setNoDelay(c)
	br := bufio.NewReaderSize(c, readBufSize)
	shmPath, err := readPeerHello(br, cl.fp)
	if err != nil {
		c.Close()
		return
	}
	closer := io.Closer(c)
	if shmPath != "" {
		// The dialer offered a ring; ack whether it mapped. The dialer sends
		// no frames until the ack arrives, so the socket br cannot have
		// buffered past the hello, and after a positive ack the frame stream
		// continues from the ring instead.
		ring, rerr := openShmRing(shmPath)
		ack := byte(peerShmNak)
		if rerr == nil {
			ack = peerShmAck
		}
		if _, werr := c.Write([]byte{ack}); werr != nil {
			if ring != nil {
				ring.unmap()
			}
			c.Close()
			return
		}
		if rerr == nil {
			sc := newShmConn(c, ring, nil)
			closer = sc
			br = bufio.NewReaderSize(sc, shmReadBufSize)
		}
	}
	defer closer.Close()
	err = cl.readFrames(br, nil, cl.peerFrame)
	// A peer dying mid-write leaves a truncated frame here; with a failure
	// handler registered that is containable noise (the control plane
	// reports the death), without one it is fatal.
	if err != errStopRead && err != io.EOF && !cl.closing.Load() && !cl.aborted.Load() && cl.handler() == nil {
		cl.failf("nettransport: reading from peer: %v", err)
	}
}

// peerFrame dispatches one data-plane frame that is not data for a
// processor hosted here: an abort, or a misrouted frame.
func (cl *Client) peerFrame(dst uint32, _ transport.Key, _ []byte) error {
	if dst == abortDst {
		cl.Abort()
		return errStopRead
	}
	return cl.notHosted(dst)
}
