package nettransport

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
)

// Address scheme: every listener and dial address in the backend is a plain
// "host:port" TCP address unless prefixed with "unix:", in which case the
// rest is a unix-domain socket path. The prefix travels everywhere an
// address does — the hub bind address, Session.Addr, the hello's data-listener
// address, the peers map — so each endpoint independently dials the right
// network and a cluster can mix transports (a unix mesh under a TCP hub).

const unixScheme = "unix:"

// SplitNetAddr resolves an address string to the (network, address) pair
// net.Dial and net.Listen expect.
func SplitNetAddr(addr string) (network, address string) {
	if len(addr) > len(unixScheme) && addr[:len(unixScheme)] == unixScheme {
		return "unix", addr[len(unixScheme):]
	}
	return "tcp", addr
}

// JoinNetAddr renders a listener's bound address back into scheme-prefixed
// string form, the inverse of SplitNetAddr.
func JoinNetAddr(ln net.Listener) string {
	if ln.Addr().Network() == "unix" {
		return unixScheme + ln.Addr().String()
	}
	return ln.Addr().String()
}

// ListenNet binds a scheme-prefixed address, with unix-domain socket
// hygiene: a process killed with SIGKILL leaves its socket file behind, and
// the next bind on that path fails with EADDRINUSE even though nobody is
// listening. When that happens, a probe connect distinguishes the two
// cases — a live listener accepts (the address really is in use, surface
// the original error), a dead one refuses the connection — and a refused
// probe unlinks the stale file and retries the bind once.
func ListenNet(addr string) (net.Listener, error) {
	network, address := SplitNetAddr(addr)
	ln, err := net.Listen(network, address)
	if err == nil || network != "unix" || !errors.Is(err, syscall.EADDRINUSE) {
		return ln, err
	}
	probe, perr := net.DialTimeout("unix", address, 250*time.Millisecond)
	if perr == nil {
		probe.Close()
		return nil, err // a live process is accepting on this path
	}
	if !errors.Is(perr, syscall.ECONNREFUSED) {
		return nil, err
	}
	if rmErr := os.Remove(address); rmErr != nil && !os.IsNotExist(rmErr) {
		return nil, err
	}
	return net.Listen(network, address)
}

// setNoDelay disables Nagle on TCP connections; unix-domain sockets have no
// coalescing delay to disable.
func setNoDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// isLoopback reports whether a TCP address is on a loopback interface —
// the signal that the remote end lives on this host.
func isLoopback(a net.Addr) bool {
	ta, ok := a.(*net.TCPAddr)
	return ok && ta.IP.IsLoopback()
}

// peerSockSeq disambiguates the unix peer-listener socket paths of clients
// sharing one process.
var peerSockSeq atomic.Int64

// sunPathMax bounds the unix socket paths this package mints. The kernel
// limit on sun_path is 108 bytes on Linux and 104 on the BSDs (including
// the NUL); 100 leaves margin on both.
const sunPathMax = 100

// shortTempDir is the temp dir for sockets and shm segments, preferring a
// short mount when $TMPDIR is deep enough to threaten sun_path.
func shortTempDir() string {
	d := os.TempDir()
	if len(d) <= sunPathMax/2 {
		return d
	}
	if st, err := os.Stat("/tmp"); err == nil && st.IsDir() {
		return "/tmp"
	}
	return d
}

// ShortSockPath mints a unique unix socket path guaranteed to fit inside
// sun_path. A deep $TMPDIR (nested CI workspaces, per-test MkdirTemp
// trees) silently produced paths the kernel truncates or rejects at bind
// time; the basename here embeds pid + sequence for uniqueness, and when
// even the short temp dir pushes the path over the limit the whole name is
// hashed down to a fixed-size basename under /tmp.
func ShortSockPath(tag string) string {
	name := fmt.Sprintf("%s-%d-%d.sock", tag, os.Getpid(), peerSockSeq.Add(1))
	if p := filepath.Join(shortTempDir(), name); len(p) <= sunPathMax {
		return p
	}
	h := fnv.New64a()
	io.WriteString(h, filepath.Join(os.TempDir(), name))
	return fmt.Sprintf("/tmp/sk-%016x.sock", h.Sum64())
}

// sameHost reports whether both ends of an established connection live on
// this machine — the precondition for the shared-memory upgrade.
func sameHost(c net.Conn) bool {
	return c.RemoteAddr().Network() == "unix" ||
		(isLoopback(c.RemoteAddr()) && isLoopback(c.LocalAddr()))
}

// listenPeer binds the client's peer data listener next to an established
// control connection c. The data plane follows the control plane's locality
// ("auto"): a unix or loopback control connection means the hub — and,
// because a hub on a loopback address is unreachable from anywhere else,
// every peer of this deployment — is on this host, so the listener upgrades
// to a unix-domain socket and the farm round trip sheds the TCP stack.
// Explicit "tcp"/"unix"/"shm" (WithDataPlane) override the inference for
// mixed deployments; "shm" listens on a unix socket like "unix" — the
// socket remains the handshake and doorbell channel — and the ring upgrade
// itself is negotiated per connection in the peer hello.
func listenPeer(c net.Conn, dataPlane string) (net.Listener, error) {
	useUnix := false
	switch dataPlane {
	case "unix", "shm":
		useUnix = true
	case "tcp":
	default: // auto
		useUnix = sameHost(c)
	}
	if useUnix {
		return net.Listen("unix", ShortSockPath("skipper-peer"))
	}
	host, _, err := net.SplitHostPort(c.LocalAddr().String())
	if err != nil {
		return nil, fmt.Errorf("nettransport: control address: %w", err)
	}
	return net.Listen("tcp", net.JoinHostPort(host, "0"))
}
