package llm

import (
	"math"
	"sort"
)

// Card is one unit of encoded domain knowledge — the machine-readable
// form of the expert-annotated design documents of §3.3/§3.4.
type Card struct {
	ID       string
	Topic    string   // e.g. "architecture", "analysis", "modification"
	Arch     string   // architecture it concerns, "" if general
	Keywords []string // retrieval hints beyond the body text
	Body     string
}

// Index is a tf-idf cosine retrieval index over cards: the mechanism that
// stands in for the fine-tuned model's parametric knowledge. An Index is
// immutable once NewIndex returns, so one Index may serve any number of
// goroutines' Search and SearchTopic calls at once. Hits share the
// indexed cards' Keywords slices; treat them as read-only.
type Index struct {
	cards []Card
	df    map[string]int
	vecs  []map[string]float64
}

// NewIndex builds the index. It keeps cards, which the caller must not
// modify afterwards.
func NewIndex(cards []Card) *Index {
	ix := &Index{cards: cards, df: map[string]int{}}
	docs := make([]map[string]int, len(cards))
	for i, c := range cards {
		tf := map[string]int{}
		for _, w := range Words(c.Body) {
			tf[w]++
		}
		for _, w := range c.Keywords {
			for _, kw := range Words(w) {
				tf[kw] += 3 // keywords are strong signals
			}
		}
		docs[i] = tf
		for w := range tf {
			ix.df[w]++
		}
	}
	n := float64(len(cards))
	ix.vecs = make([]map[string]float64, len(cards))
	for i, tf := range docs {
		vec := map[string]float64{}
		norm := 0.0
		for w, c := range tf {
			idf := math.Log(1 + n/float64(ix.df[w]))
			v := (1 + math.Log(float64(c))) * idf
			vec[w] = v
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			for w := range vec {
				vec[w] /= norm
			}
		}
		ix.vecs[i] = vec
	}
	return ix
}

// Len returns the number of indexed cards.
func (ix *Index) Len() int { return len(ix.cards) }

// Hit is one retrieval result.
type Hit struct {
	Card  Card
	Score float64
}

// Search returns the top-k cards for a query, sorted by descending score
// (ties broken by card ID for determinism).
func (ix *Index) Search(query string, k int) []Hit {
	qtf := map[string]int{}
	for _, w := range Words(query) {
		qtf[w]++
	}
	n := float64(len(ix.cards))
	qvec := map[string]float64{}
	qnorm := 0.0
	for w, c := range qtf {
		df := ix.df[w]
		if df == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(df))
		v := (1 + math.Log(float64(c))) * idf
		qvec[w] = v
		qnorm += v * v
	}
	qnorm = math.Sqrt(qnorm)
	if qnorm == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(ix.cards))
	for i, vec := range ix.vecs {
		dot := 0.0
		for w, qv := range qvec {
			dot += qv * vec[w]
		}
		score := dot / qnorm
		if score > 0 {
			hits = append(hits, Hit{Card: ix.cards[i], Score: score})
		}
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].Card.ID < hits[b].Card.ID
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// SearchTopic restricts retrieval to cards of one topic.
func (ix *Index) SearchTopic(query, topic string, k int) []Hit {
	all := ix.Search(query, 0)
	out := all[:0]
	for _, h := range all {
		if h.Card.Topic == topic {
			out = append(out, h)
		}
	}
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
