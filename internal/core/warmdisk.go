package core

import (
	"encoding/json"
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
	"meecc/internal/snapstore"
	"meecc/internal/wire"
)

// Encode serializes the warm state — the warm inputs it was produced from,
// both actors' resume clocks, what the warm phase computed, and the full
// platform snapshot's image — into a sealed snapstore blob, framed and
// checksummed in the one buffer it is encoded into. Decode of the blob
// yields a state whose Run produces results DeepEqual to this one's. The
// blob is a function of the state's warmKey: nothing a transmit config sets
// reaches it.
func (ws *ChannelWarmState) Encode() ([]byte, error) {
	// The warm inputs hold a nil observer (warmRestriction), so canonical
	// JSON captures them exactly.
	inJSON, err := json.Marshal(ws.in)
	if err != nil {
		return nil, fmt.Errorf("core: encoding warm inputs: %w", err)
	}
	return snapstore.Encode(snapstore.KindWarm, func(w *wire.Writer) error {
		w.Blob(inJSON)
		w.I64(int64(ws.trojanClock))
		w.I64(int64(ws.spyClock))
		w.U64(uint64(len(ws.evSet)))
		for _, va := range ws.evSet {
			w.U64(uint64(va))
		}
		w.I64(int64(ws.setupCycles))
		w.I64(int64(ws.spyThreshold))
		w.I64(int64(ws.monitorScore))
		w.U64(uint64(ws.monitor))
		return ws.snap.AppendImage(w)
	})
}

// DecodeWarmState reverses Encode. Damaged blobs error (never panic); the
// seal's checksum catches corruption before any field is interpreted.
func DecodeWarmState(blob []byte) (*ChannelWarmState, error) {
	payload, err := snapstore.Unseal(snapstore.KindWarm, blob)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(payload)
	inJSON := r.Blob()
	ws := &ChannelWarmState{}
	ws.trojanClock = sim.Cycles(r.I64())
	ws.spyClock = sim.Cycles(r.I64())
	ws.evSet = make([]enclave.VAddr, r.Count(8))
	for i := range ws.evSet {
		ws.evSet[i] = enclave.VAddr(r.U64())
	}
	ws.setupCycles = sim.Cycles(r.I64())
	ws.spyThreshold = sim.Cycles(r.I64())
	ws.monitorScore = int(r.I64())
	ws.monitor = enclave.VAddr(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(inJSON, &ws.in); err != nil {
		return nil, fmt.Errorf("%w: warm inputs: %v", wire.ErrCorrupt, err)
	}
	snap, err := platform.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", wire.ErrCorrupt, r.Remaining())
	}
	ws.snap = snap
	return ws, nil
}
