// Agent event export: the hook that lets an observer outside the agent
// — a fabric coordinator composing network-wide reactions, a telemetry
// collector — subscribe to what reactions decide, without coupling
// reaction bodies to any particular consumer.
package core

import "repro/internal/sim"

// Event is one notification exported by a reaction through Ctx.Emit
// or the emit builtin.
// Kind is an application-level tag (e.g. "dos.block"); Key and Val are
// its payload, with meaning fixed by the kind. Events are facts about
// committed or in-flight reaction decisions, not control messages: the
// emitting agent does not wait for consumers. An emit is delivered once
// the table calls staged before it are prepared, so events are at least
// once: an abandoned iteration's retry delivers its events again, while
// its native Go state and rand() draws are not rolled back.
type Event struct {
	// At is the virtual time of emission.
	At sim.Time
	// Agent is the emitting agent's Options.Name.
	Agent string
	// Kind tags the event type.
	Kind string
	// Key and Val carry the kind-specific payload.
	Key uint64
	Val uint64
}

// Emit exports an event to the agent's EventSink. Without a sink it is
// a no-op, so reaction bodies can emit unconditionally.
func (c *Ctx) Emit(kind string, key, val uint64) { c.agent.emit(kind, key, val) }

// heldEvent is an emitted event waiting for its prepares (prepareStaged):
// pos is the log position it follows.
type heldEvent struct {
	pos      int
	kind     string
	key, val uint64
}

func (a *Agent) emit(kind string, key, val uint64) {
	if a.opts.EventSink != nil {
		a.held = append(a.held, heldEvent{pos: len(a.staged), kind: kind, key: key, val: val})
	}
}
