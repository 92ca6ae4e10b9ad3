package agents

import (
	"fmt"
	"strings"
)

// Role identifies the speaker of a transcript entry.
type Role string

// Transcript roles.
const (
	RolePrompter Role = "Prompter" // Artisan-Prompter questions (Q_i)
	RoleDesigner Role = "Designer" // designer-LLM answers (A_i)
	RoleTool     Role = "Tool"     // tool invocations and results
	RoleDecision Role = "ToT"      // tree-of-thoughts decision records
	RoleVerdict  Role = "Verifier" // spec check outcomes
)

// Entry is one utterance of the multi-agent session.
type Entry struct {
	Seq  int
	Role Role
	Text string
}

// Transcript is the full chat log of a design session (the artifact the
// paper presents in Fig. 7 to demonstrate interpretability).
type Transcript struct {
	Model   string
	Entries []Entry
	qaCount int
	// countOnly keeps the QA count and records no entry: the session ran
	// with Options.NoTranscript.
	countOnly bool
}

// Add appends an entry.
func (t *Transcript) Add(role Role, text string) {
	if t.countOnly {
		return
	}
	t.Entries = append(t.Entries, Entry{Seq: len(t.Entries), Role: role, Text: text})
}

// QA appends a numbered question/answer pair (Q_i/A_i of Eq. 3–4).
func (t *Transcript) QA(question, answer string) {
	i := t.qaCount
	t.qaCount++
	if t.countOnly {
		return
	}
	t.Add(RolePrompter, fmt.Sprintf("Q%d: %s", i, question))
	t.Add(RoleDesigner, fmt.Sprintf("A%d: %s", i, answer))
}

// countQA counts a question/answer pair without rendering its text, for
// a session that records no transcript.
func (t *Transcript) countQA() { t.qaCount++ }

// ToolCall records a tool invocation.
func (t *Transcript) ToolCall(tool, input, output string) {
	if t.countOnly {
		return
	}
	t.Add(RoleTool, fmt.Sprintf("[%s] %s -> %s", tool, input, output))
}

// QACount returns how many QA exchanges occurred (the LLM-inference count
// for the cost model).
func (t *Transcript) QACount() int { return t.qaCount }

// Chat renders the transcript as a readable log.
func (t *Transcript) Chat() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== chat log (%s) ===\n", t.Model)
	for _, e := range t.Entries {
		switch e.Role {
		case RolePrompter, RoleDesigner:
			fmt.Fprintln(&b, e.Text)
		default:
			fmt.Fprintf(&b, "  (%s) %s\n", e.Role, e.Text)
		}
	}
	return b.String()
}
