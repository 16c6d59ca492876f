package core

import (
	"encoding/json"
	"fmt"
	"math"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
	"meecc/internal/snapstore"
)

// Encode serializes the warm state — the warm-phase config it was produced
// under, both actors' resume points, the derived channel parameters, and the
// full platform snapshot — into a sealed snapstore blob, framed and
// checksummed in the one buffer it is encoded into. Decode of the blob
// yields a state whose Run produces results DeepEqual to this one's.
func (ws *ChannelWarmState) Encode() ([]byte, error) {
	// The warm config is nil in every field warmRestriction forbids
	// (Obs, Fault, onPlatform) and carries no payload (Bits cleared by
	// WarmChannel), so canonical JSON captures it exactly.
	cfgJSON, err := json.Marshal(ws.warmCfg)
	if err != nil {
		return nil, fmt.Errorf("core: encoding warm config: %w", err)
	}
	w := snapstore.NewSealWriter(snapstore.KindWarm)
	w.Blob(cfgJSON)
	writeThreadState(w, ws.trojanSt)
	writeThreadState(w, ws.spySt)
	w.I64(int64(ws.trojanClock))
	w.I64(int64(ws.spyClock))
	w.U64(uint64(len(ws.evSet)))
	for _, va := range ws.evSet {
		w.U64(uint64(va))
	}
	w.U64(uint64(ws.monitor))
	w.I64(int64(ws.spyThreshold))
	w.I64(int64(ws.evictionSetSize))
	w.I64(int64(ws.monitorScore))
	w.I64(int64(ws.setupCycles))
	// The snapshot is nearly all of the blob; AppendSnapshot sizes the
	// buffer for it before writing.
	if err := snapstore.AppendSnapshot(w, ws.snap); err != nil {
		return nil, err
	}
	return w.Seal(), nil
}

// DecodeWarmState reverses Encode. Damaged blobs error (never panic); the
// seal's checksum catches corruption before any field is interpreted.
func DecodeWarmState(blob []byte) (*ChannelWarmState, error) {
	payload, err := snapstore.Unseal(snapstore.KindWarm, blob)
	if err != nil {
		return nil, err
	}
	r := snapstore.NewReader(payload)
	cfgJSON := r.Blob()
	ws := &ChannelWarmState{}
	ws.trojanSt = readThreadState(r)
	ws.spySt = readThreadState(r)
	ws.trojanClock = sim.Cycles(r.I64())
	ws.spyClock = sim.Cycles(r.I64())
	n := r.Count(8)
	ws.evSet = make([]enclave.VAddr, n)
	for i := range ws.evSet {
		ws.evSet[i] = enclave.VAddr(r.U64())
	}
	ws.monitor = enclave.VAddr(r.U64())
	ws.spyThreshold = sim.Cycles(r.I64())
	ws.evictionSetSize = int(r.I64())
	ws.monitorScore = int(r.I64())
	ws.setupCycles = sim.Cycles(r.I64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(cfgJSON, &ws.warmCfg); err != nil {
		return nil, fmt.Errorf("%w: warm config: %v", snapstore.ErrCorrupt, err)
	}
	snap, err := snapstore.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", snapstore.ErrCorrupt, r.Remaining())
	}
	ws.snap = snap
	return ws, nil
}

func writeThreadState(w *snapstore.Writer, st platform.ThreadState) {
	w.I64(int64(st.Core))
	w.Bool(st.EnclaveMode)
	w.I64(int64(st.PendingStall))
	w.I64(int64(st.TimerDrift))
	w.U64(math.Float64bits(st.TimerJitter))
}

func readThreadState(r *snapstore.Reader) platform.ThreadState {
	return platform.ThreadState{
		Core:         int(r.I64()),
		EnclaveMode:  r.Bool(),
		PendingStall: sim.Cycles(r.I64()),
		TimerDrift:   sim.Cycles(r.I64()),
		TimerJitter:  math.Float64frombits(r.U64()),
	}
}
