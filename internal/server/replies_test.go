package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// pinnedDesignBodies lists the POST /design bodies whose replies
// TestDesignRepliesPinned pins: every group at temperature 0 and 0.3
// (two seeds each) and one tuned request whose direct design misses its
// spec, each sent plain, with a transcript and with the groundedness
// report. Entry i*3 is the plain body of a request, i*3+1 and i*3+2 its
// transcript and verify variants.
func pinnedDesignBodies() []string {
	var bases []string
	for _, g := range []string{"G-1", "G-2", "G-3", "G-4", "G-5"} {
		for _, temp := range []string{"0", "0.3"} {
			for seed := 1; seed <= 2; seed++ {
				bases = append(bases, fmt.Sprintf(`"group":%q,"seed":%d,"temperature":%s`, g, seed, temp))
			}
		}
	}
	bases = append(bases, `"group":"G-1","seed":1,"temperature":0.9,"tune":true`)
	var out []string
	for _, b := range bases {
		out = append(out, "{"+b+"}", "{"+b+`,"transcript":true}`, "{"+b+`,"verify":true}`)
	}
	return out
}

// pinnedReplyDigests are the FNV-64a digests of the reply bodies to
// pinnedDesignBodies, recorded when every design run still rendered its
// whole transcript. A design run that records no transcript text, or
// defers it, must answer byte for byte as that one did.
var pinnedReplyDigests = []string{
	"dc5047837208b0c4", "34d84e04e0635188", "ebbe35174ac64c1c",
	"dc5047837208b0c4", "34d84e04e0635188", "ebbe35174ac64c1c",
	"aac687588002efce", "e80b1a07522eda9d", "4f3d504678b3e56e",
	"8f7e88cbacb64626", "a704c9ef4be86e42", "2ec4165c093453e2",
	"26e3fc75232c161d", "640ebfb87d1f24ad", "54652f070a4b97bd",
	"26e3fc75232c161d", "640ebfb87d1f24ad", "54652f070a4b97bd",
	"684d5b63e2def636", "66d3772390d70e28", "33536d63232a2026",
	"6518001016df61fa", "7f52eb773c3a6987", "3d3563a026919cee",
	"049145a18e94e5d4", "f7b5c2c55dde208a", "d5771ec32326c6a4",
	"049145a18e94e5d4", "f7b5c2c55dde208a", "d5771ec32326c6a4",
	"b5ff2df4322ec4d1", "41983d21c239b910", "38dd99a602a01b59",
	"a264c8f49f99d9e1", "2c83e3588cc74956", "4e8354ec06302b30",
	"962adc8e8dc20d99", "4c75ade3032e50d6", "c4ef27dda7e06ea1",
	"962adc8e8dc20d99", "4c75ade3032e50d6", "c4ef27dda7e06ea1",
	"7e8baa4a6a4bbe59", "276cfd2dbe9a13e4", "1df79059ed537a45",
	"c645b22411feee74", "06ad2bd094d43557", "c958ce68383e0148",
	"69789ffb8a54f216", "9572275286d3354d", "26b35522b7e78a0e",
	"69789ffb8a54f216", "9572275286d3354d", "26b35522b7e78a0e",
	"3e3b36ed4a3f38fc", "751a5d98ab0558bc", "70c2289caa42f83c",
	"b5fde701b419658c", "5da449c4d5ca4e24", "9bce9b4b46673ae0",
	"d4305d8001943303", "e787a6ddf7723bd2", "ef012edbe5f9d270",
}

func replyDigest(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestDesignRepliesPinned(t *testing.T) {
	bodies := pinnedDesignBodies()
	if len(pinnedReplyDigests) != len(bodies) {
		t.Fatalf("%d digests for %d bodies", len(pinnedReplyDigests), len(bodies))
	}
	srv := newServer(t, Options{})
	sessions := make([]map[string]int, len(bodies))
	for i, body := range bodies {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/design", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
		}
		if got := replyDigest(rec.Body.Bytes()); got != pinnedReplyDigests[i] {
			t.Errorf("%s: reply digest %s, want %s; reply:\n%s", body, got, pinnedReplyDigests[i], rec.Body)
		}
		var resp DesignResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		sessions[i] = resp.Session
		if base := sessions[i-i%3]; fmt.Sprint(resp.Session) != fmt.Sprint(base) {
			t.Errorf("%s: session %v, want %v as without a transcript", body, resp.Session, base)
		}
	}
}
