package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// The golden files under testdata/ are the canonical bytes of the binary
// wire format, one file per message shape. Any codec change that moves the
// encoding fails these tests; an intentional format change must bump
// ProtoVersion and regenerate with
//
//	go test ./internal/wire -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite golden wire-format files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s\n got: %s\nwant: %s",
			path, hex.EncodeToString(got), hex.EncodeToString(want))
	}
}

func TestGoldenRequests(t *testing.T) {
	for name, req := range testRequests() {
		enc := EncodeRequest(nil, req)
		checkGolden(t, "req_"+name+".bin", enc)
		// The checked-in bytes must also decode back to the message (not
		// just byte-compare), so a drifted decoder cannot hide behind a
		// drifted encoder.
		got, err := DecodeRequest(enc)
		if err != nil {
			t.Errorf("%s: decode golden: %v", name, err)
			continue
		}
		if want := canonRequest(req); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: golden decode mismatch\n got %+v\nwant %+v", name, got, want)
		}
	}

	// req_replica-batch.bin is decode-only: an update batch carrying the
	// retired replica bit, which the decoder ignores like bits 6-7. It must
	// decode to the plain batch and re-encode to the same bytes with that
	// one bit (in the flag byte after the one-byte client id) cleared.
	old, err := os.ReadFile(filepath.Join("testdata", "req_replica-batch.bin"))
	if err != nil {
		t.Fatal(err)
	}
	batch := &Request{
		Client: 13,
		Epoch:  8,
		Updates: []UpdateOp{
			{Kind: UpdateInsert, Obj: 80001, To: geom.R(0.125, 0.25, 0.25, 0.375), Size: 512},
			{Kind: UpdateMove, Obj: 19, From: geom.R(0.5, 0.5, 0.625, 0.625), To: geom.R(0.625, 0.5, 0.75, 0.625)},
		},
	}
	got, err := DecodeRequest(old)
	if err != nil {
		t.Fatalf("replica-batch: decode golden: %v", err)
	}
	if want := canonRequest(batch); !reflect.DeepEqual(got, want) {
		t.Errorf("replica-batch: golden decode mismatch\n got %+v\nwant %+v", got, want)
	}
	if old[1]&reqReplicaReserved == 0 {
		t.Fatal("replica-batch golden no longer carries the reserved bit")
	}
	plain := append([]byte(nil), old...)
	plain[1] &^= reqReplicaReserved
	if enc := EncodeRequest(nil, batch); !bytes.Equal(enc, plain) {
		t.Errorf("replica-batch: re-encoded %x, want the golden without the reserved bit %x", enc, plain)
	}
}

func TestGoldenResponses(t *testing.T) {
	for name, resp := range testResponses() {
		enc := EncodeResponse(nil, resp)
		checkGolden(t, "resp_"+name+".bin", enc)
		got, err := DecodeResponse(enc)
		if err != nil {
			t.Errorf("%s: decode golden: %v", name, err)
			continue
		}
		if want := canonResponse(resp); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: golden decode mismatch\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestGoldenFrame locks the frame layout (length prefix, type byte,
// correlation id) and the handshake preamble bytes.
func TestGoldenFrame(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := bw.Write(handshakeMagic[:]); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, frameRequest, 1, EncodeRequest(nil, testRequests()["catalog"])); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(bw, frameError, 7, []byte("boom")); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "frame_stream.bin", buf.Bytes())
}

// TestEdgeHandshakeRefused: the client preamble (byte 5 = 0) negotiates
// binary; byte 5 = 1, the retired edge-proxy role, is refused like any
// unknown role (the server closes such a connection, TestNonPreambleOpenerIsClosed).
func TestEdgeHandshakeRefused(t *testing.T) {
	if ok, err := sniffBinary(bufio.NewReader(bytes.NewReader(handshakeMagic[:]))); err != nil || !ok {
		t.Errorf("client preamble refused: ok=%v err=%v", ok, err)
	}
	for _, role := range []byte{1, 0x7f} {
		p := handshakeMagic
		p[5] = role
		if ok, err := sniffBinary(bufio.NewReader(bytes.NewReader(p[:]))); err != nil || ok {
			t.Errorf("role %d accepted as binary: ok=%v err=%v", role, ok, err)
		}
	}
}
