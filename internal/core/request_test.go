package core

import (
	"encoding/json"
	"testing"
)

// pinnedKeys holds one body of each kind (group, inline spec, prompt,
// tuned with a backend) and its design key. The journal stores this key
// with every submit and Replay re-warms the cache under it, so a changed
// format would orphan every journaled result: these strings change only
// with a journal migration.
var pinnedKeys = []struct{ body, key string }{
	{`{"group":"G-1","seed":7}`,
		"design|gain=85|gbw=700000|pm=55|pow=0.00025|cl=1e-11|rl=1e+06|vdd=1.8|seed=7|temp=0|width=1|tune=false|chat=false|verify=false|backend="},
	{`{"spec":{"name":"mine","minGainDB":92.5,"minGBWHz":1.5e6,"minPMDeg":60,"maxPowerW":3e-4,"clF":2e-11,"rlOhm":5e5},"seed":3,"temperature":0.3}`,
		"design|gain=92.5|gbw=1.5e+06|pm=60|pow=0.0003|cl=2e-11|rl=500000|vdd=1.8|seed=3|temp=0.3|width=1|tune=false|chat=false|verify=false|backend="},
	{`{"prompt":"gain >85dB, PM >55°, GBW >0.7MHz, Power <250uW, CL = 1nF","seed":2,"transcript":true}`,
		"design|gain=85|gbw=700000|pm=55|pow=0.00025|cl=1e-09|rl=1e+06|vdd=1.8|seed=2|temp=0|width=1|tune=false|chat=true|verify=false|backend="},
	{`{"group":"G-4","seed":5,"temperature":0.9,"treeWidth":2,"tune":true,"backend":"ga","verify":true}`,
		"design|gain=85|gbw=700000|pm=55|pow=5e-05|cl=1e-11|rl=1e+06|vdd=1.8|seed=5|temp=0.9|width=2|tune=true|chat=false|verify=true|backend=ga"},
}

func TestRequestKeyPinned(t *testing.T) {
	for _, tc := range pinnedKeys {
		var req Request
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		sp, err := req.Resolve("")
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := req.Key(sp); got != tc.key {
			t.Errorf("%s:\n got %s\nwant %s", tc.body, got, tc.key)
		}
	}
}

// FuzzRequest: no raw body panics the resolution, and a body that
// resolves keeps its key when the resolved request is encoded and
// resolved again.
func FuzzRequest(f *testing.F) {
	for _, tc := range pinnedKeys {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if json.Unmarshal(body, &req) != nil {
			return
		}
		sp, err := req.Resolve("")
		if err != nil {
			return
		}
		key := req.Key(sp)
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode %q: %v", body, err)
		}
		var req2 Request
		if err := json.Unmarshal(again, &req2); err != nil {
			t.Fatalf("decode re-encoded %s: %v", again, err)
		}
		sp2, err := req2.Resolve("")
		if err != nil {
			t.Fatalf("re-encoded %s no longer resolves: %v", again, err)
		}
		if key2 := req2.Key(sp2); key2 != key {
			t.Fatalf("%q: key %s, re-encoded %s: key %s", body, key, again, key2)
		}
	})
}
