package syndex

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// macroFileName is processor p's macro-code file (see MacroCodeFiles).
func macroFileName(p int) string { return fmt.Sprintf("proc%d.m4", p) }

// Fingerprint is a stable 64-bit digest of a deployment: the full
// macro-code (which encodes graph structure, assignment and per-processor
// programs), the architecture and the distribution strategy. Two processes
// of a distributed executive handshake with their fingerprints — equal
// fingerprints mean both compiled the same deployment, so a frame's edge
// and farm identifiers refer to the same graph objects on both sides. Each
// call renders the whole macro-code: a caller that needs it per run keeps it
// beside the schedule, as distrib's memo of compiled job shapes does.
func (s *Schedule) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Arch.Name))
	h.Write([]byte{byte(s.Arch.N), byte(s.Strategy)})
	h.Write([]byte(s.MacroCode()))
	return h.Sum64()
}

// ProcManifest describes one processor's share of a deployment.
type ProcManifest struct {
	Proc    int    `json:"proc"`
	Ops     int    `json:"ops"`
	Nodes   int    `json:"nodes"`
	Program string `json:"program_file"`
}

// Manifest is the machine-readable deployment description written next to
// the macro-code files: the architecture, the per-processor programs and the
// schedule fingerprint every process of a deployment must agree on.
type Manifest struct {
	Architecture string         `json:"architecture"`
	Processors   int            `json:"processors"`
	Strategy     string         `json:"strategy"`
	Fingerprint  string         `json:"fingerprint"` // hex, matches handshake
	Procs        []ProcManifest `json:"procs"`
}

// Manifest builds the deployment manifest for this schedule.
func (s *Schedule) Manifest() Manifest {
	m := Manifest{
		Architecture: s.Arch.Name,
		Processors:   s.Arch.N,
		Strategy:     s.Strategy.String(),
		Fingerprint:  fingerprintHex(s.Fingerprint()),
	}
	assigned := make([]int, s.Arch.N)
	for _, p := range s.Assign {
		if int(p) >= 0 && int(p) < s.Arch.N {
			assigned[p]++
		}
	}
	for p := 0; p < s.Arch.N; p++ {
		m.Procs = append(m.Procs, ProcManifest{
			Proc:    p,
			Ops:     len(s.Programs[p]),
			Nodes:   assigned[p],
			Program: macroFileName(p),
		})
	}
	return m
}

// ManifestJSON renders the manifest with stable formatting.
func (s *Schedule) ManifestJSON() ([]byte, error) {
	data, err := json.MarshalIndent(s.Manifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func fingerprintHex(fp uint64) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = digits[fp&0xf]
		fp >>= 4
	}
	return string(out)
}
