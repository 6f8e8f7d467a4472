package wire

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz seed corpus: the canonical bodies of every message shape, one
// retired shape's bytes, plus a few deliberately hostile frames. `go test -fuzz` grows it from here; CI runs a
// short -fuzztime smoke over both targets.

func seedBodies() [][]byte {
	var seeds [][]byte
	for _, req := range testRequests() {
		seeds = append(seeds, EncodeRequest(nil, req))
	}
	// A retired shape's checked-in bytes: an update batch carrying the
	// reserved replica bit, which the decoder must keep ignoring.
	legacy, err := os.ReadFile(filepath.Join("testdata", "req_replica-batch.bin"))
	if err != nil {
		panic(err)
	}
	seeds = append(seeds, legacy)
	for _, resp := range testResponses() {
		seeds = append(seeds, EncodeResponse(nil, resp))
	}
	return seeds
}

// FuzzDecodeFrame hammers the framing and both body decoders with arbitrary
// bytes: malformed or truncated input must return an error — never panic and
// never allocate past the bytes actually supplied (the decoder validates
// every count against the remaining input, and readFrame reads oversized
// frames in bounded chunks).
func FuzzDecodeFrame(f *testing.F) {
	for _, body := range seedBodies() {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, frameRequest, 1, body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:len(buf.Bytes())/2]) // truncated frame
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})       // absurd length prefix
	f.Add([]byte{0, 0, 0x80, 0, 1, 1})          // 8 MiB claim, 2 bytes sent
	f.Add([]byte{2, 0, 0, 0, frameResponse, 0}) // minimal frame, empty body
	f.Add(append([]byte{8, 0, 0, 0}, handshakeMagic[:]...))
	// The retired edge-role preamble, framed and bare: junk to the decoders.
	edgePreamble := handshakeMagic
	edgePreamble[5] = 1
	f.Add(append([]byte{8, 0, 0, 0}, edgePreamble[:]...))
	f.Add(edgePreamble[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, _, body, err := readFrame(bytes.NewReader(data), new([]byte))
		if err != nil {
			return
		}
		_ = typ
		// A structurally valid frame may still carry garbage: both decoders
		// must reject it gracefully.
		if req, err := DecodeRequest(body); err == nil && req == nil {
			t.Fatal("nil request without error")
		}
		if resp, err := DecodeResponse(body); err == nil && resp == nil {
			t.Fatal("nil response without error")
		}
	})
}

// FuzzCodecRoundTrip checks encode∘decode idempotence: any bytes the decoder
// accepts must re-encode to a stable canonical form (decoding that form and
// encoding again yields identical bytes). This pins down lossiness to the
// documented cases only (float32 geometry, dropped priority keys) and proves
// the codec cannot silently corrupt a message it accepted.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, body := range seedBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil {
			b1 := EncodeRequest(nil, req)
			req2, err := DecodeRequest(b1)
			if err != nil {
				t.Fatalf("re-decode of accepted request failed: %v", err)
			}
			if b2 := EncodeRequest(nil, req2); !bytes.Equal(b1, b2) {
				t.Fatalf("request encoding not canonical:\n b1 %x\n b2 %x", b1, b2)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			b1 := EncodeResponse(nil, resp)
			resp2, err := DecodeResponse(b1)
			if err != nil {
				t.Fatalf("re-decode of accepted response failed: %v", err)
			}
			if b2 := EncodeResponse(nil, resp2); !bytes.Equal(b1, b2) {
				t.Fatalf("response encoding not canonical:\n b1 %x\n b2 %x", b1, b2)
			}
		}
	})
}
