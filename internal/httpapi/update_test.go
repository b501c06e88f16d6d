package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
)

// FuzzDecodeUpdates drives the one /update body decoder both tiers
// share. Whatever it accepts must be exactly the request it was given:
// every object lands in its stream's group, in order, with an omitted
// weight read as 1; the tenants agree; the key round-trips.
func FuzzDecodeUpdates(f *testing.F) {
	for _, seed := range []struct {
		key, urlTenant, body string
		oversize             bool
	}{
		{"", "", `{"stream":"F","value":1}`, false},
		{"c:1", "", `[{"stream":"F","value":1,"weight":2},{"stream":"G","value":3},{"stream":"F","value":4}]`, false},
		{"", "", `[{"tenant":"a","stream":"F","value":1},{"tenant":"b","stream":"F","value":2}]`, false},
		{"", "a", `[{"tenant":"b","stream":"F","value":1}]`, false},
		{"", "a", `[{"tenant":"a","stream":"F","value":1},{"stream":"G","value":2}]`, false},
		{"", "", `[{"stream":"F","value":1},{"stream":"F","value":2,"weight":0},{"stream":"F","value":3,"weight":-5}]`, false},
		{"a.b:c:9", "", `[]`, false},
		{"nocolon", "", `[]`, false},
		{":5", "", `[]`, false},
		{"c:", "", `[]`, false},
		{"c:-1", "", `[]`, false},
		{strings.Repeat("k", 2*wire.MaxNameLen) + ":1", "", `[]`, false},
		{"", "", `{nope`, false},
		{"", "", `[{"stream":"F","value":1}]`, true},
	} {
		f.Add(seed.key, seed.urlTenant, []byte(seed.body), seed.oversize)
	}
	f.Fuzz(func(t *testing.T, key, urlTenant string, body []byte, oversize bool) {
		r := httptest.NewRequest("POST", "/update", bytes.NewReader(body))
		if key != "" {
			// Header values cannot carry control bytes; skip keys the
			// transport could never deliver.
			if strings.ContainsAny(key, "\r\n\x00") {
				return
			}
			r.Header.Set("Idempotency-Key", key)
		}
		if oversize {
			r.ContentLength = MaxBodyBytes + 1
		}
		d, err := DecodeUpdates(r, urlTenant)
		if err != nil {
			return
		}
		if oversize {
			t.Fatal("accepted a body declared over MaxBodyBytes")
		}
		if key == "" {
			if d.ClientID != "" {
				t.Fatalf("keyless request decoded with client ID %q", d.ClientID)
			}
		} else {
			seq, err := strconv.ParseUint(strings.TrimPrefix(key, d.ClientID+":"), 10, 64)
			if d.ClientID == "" || !strings.HasPrefix(key, d.ClientID+":") || err != nil || seq != d.Seq || len(key) > 2*wire.MaxNameLen {
				t.Fatalf("key %q decoded as client %q seq %d", key, d.ClientID, d.Seq)
			}
		}

		type object struct {
			Tenant string `json:"tenant"`
			Stream string `json:"stream"`
			Value  uint64 `json:"value"`
			Weight *int64 `json:"weight"`
		}
		var objs []object
		if json.Unmarshal(body, &objs) != nil {
			var one object
			if err := json.Unmarshal(body, &one); err != nil {
				t.Fatalf("accepted a body that is neither an update object nor an array: %v", err)
			}
			objs = []object{one}
		}
		want := make(map[string][]stream.Update)
		for _, o := range objs {
			if o.Tenant != "" && o.Tenant != d.Tenant {
				t.Fatalf("object tenant %q accepted into a request for tenant %q", o.Tenant, d.Tenant)
			}
			w := int64(1)
			if o.Weight != nil {
				w = *o.Weight
			}
			want[o.Stream] = append(want[o.Stream], stream.Update{Value: o.Value, Weight: w})
		}
		if urlTenant != "" && d.Tenant != urlTenant {
			t.Fatalf("URL tenant %q decoded as %q", urlTenant, d.Tenant)
		}
		total := 0
		seen := make(map[string]bool)
		for _, g := range d.Groups {
			if seen[g.Name] {
				t.Fatalf("stream %q split across groups", g.Name)
			}
			seen[g.Name] = true
			total += len(g.Updates)
			w := want[g.Name]
			if len(w) != len(g.Updates) {
				t.Fatalf("stream %q: %d updates, want %d", g.Name, len(g.Updates), len(w))
			}
			for i := range w {
				if g.Updates[i] != w[i] {
					t.Fatalf("stream %q update %d = %+v, want %+v", g.Name, i, g.Updates[i], w[i])
				}
			}
		}
		if total != len(objs) {
			t.Fatalf("groups hold %d updates, body has %d objects", total, len(objs))
		}
	})
}
