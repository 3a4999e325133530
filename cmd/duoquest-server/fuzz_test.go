package main

import (
	"encoding/json"
	"testing"
)

// FuzzV1SynthesizeDecode drives the /v1/synthesize request decoder with
// arbitrary bytes: JSON-decode into synthesizeRequest, then convert the
// literals and the sketch exactly as the handler does. No input may panic,
// and every sketch jsonSketch accepts must be a valid TSQ whose tuples all
// have the sketch's width.
func FuzzV1SynthesizeDecode(f *testing.F) {
	for _, seed := range []string{
		masBody,
		`not json`,
		`{}`,
		`{"nlq": "x", "literals": [true]}`,
		`{"nlq": "x", "sketch": {"types": ["blob"]}}`,
		`{"nlq": "x", "sketch": {"tuples": [[["a", "b"]]]}}`,
		`{"nlq": "x", "sketch": {"limit": -3}}`,
		`{"db": "nope", "nlq": "x", "stream": true}`,
		`{"nlq": "x", "epoch": -1, "deadline_ms": 18446744073710}`,
		`{"nlq": "x", "deadline_ms": 1.5}`,
		// Range, null and empty-width sketches.
		`{"nlq": "x", "sketch": {"types": ["text", "number"], "tuples": [["Gravity", [2010, 2017]]]}}`,
		`{"nlq": "x", "sketch": {"tuples": [[[2017, 2010]]]}}`,
		`{"nlq": "x", "sketch": {"types": ["number"], "tuples": [[null], [[1, 2]]]}}`,
		`{"nlq": "x", "sketch": {"tuples": [[], []]}}`,
		`{"nlq": "x", "sketch": {"types": [], "tuples": [[]], "sorted": true, "limit": 1}}`,
		`{"nlq": "x", "sketch": {"types": ["text"], "tuples": [["a"], ["b", "c"]], "limit": 1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req synthesizeRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		for _, l := range req.Literals {
			jsonValue(l)
		}
		if req.Sketch == nil {
			return
		}
		sk, err := jsonSketch(req.Sketch)
		if err != nil {
			return
		}
		if err := sk.Validate(); err != nil {
			t.Fatalf("accepted sketch fails Validate: %v", err)
		}
		for i, tp := range sk.Tuples {
			if len(tp) != sk.Width() {
				t.Fatalf("tuple %d has %d cells, sketch width %d", i, len(tp), sk.Width())
			}
		}
	})
}
