package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"skimsketch/internal/core"
)

// FuzzDecodePayload feeds arbitrary bytes to the SKSL decoder, which
// reads what shards ship over the network: it must never panic, and
// anything it accepts must re-encode to exactly the input bytes.
func FuzzDecodePayload(f *testing.F) {
	cfg := core.Config{Tables: 3, Buckets: 8, Seed: 1}
	left, right := core.MustNewHashSketch(cfg), core.MustNewHashSketch(cfg)
	left.Update(3, 5)
	right.Update(3, -2)
	valid, err := EncodePayload(&Payload{Agg: AggSum, Domain: 64, LeftEpoch: 1, RightEpoch: 1, Left: left, Right: right})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:payloadFixedLen-1])                // too short for the fixed header
	f.Add(valid[:len(valid)-3])                     // truncated right blob
	f.Add(append([]byte("SKSX"), valid[4:]...))     // bad magic
	f.Add(append(append([]byte(nil), valid...), 0)) // trailing byte
	absurd := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(absurd[33:37], 1<<31) // left blob length far past the end
	f.Add(absurd)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return
		}
		again, err := EncodePayload(p)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("EncodePayload(DecodePayload(x)) != x: %d vs %d bytes", len(again), len(data))
		}
	})
}
