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
// emitting agent does not wait for consumers.
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
func (c *Ctx) Emit(kind string, key, val uint64) { c.agent.emit(c.proc, kind, key, val) }

func (a *Agent) emit(p *sim.Proc, kind string, key, val uint64) {
	if sink := a.opts.EventSink; sink != nil {
		sink(Event{At: p.Now(), Agent: a.opts.Name, Kind: kind, Key: key, Val: val})
	}
}
