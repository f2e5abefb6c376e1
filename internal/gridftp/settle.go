package gridftp

import "gridftp.dev/instant/internal/ftp"

// The client's reply discipline. A command costs a round trip only where the
// client waits for its answer, so the client does not wait for answers it
// does not need yet: a session command — one that answers 200 and whose
// outcome is a state change here — may be written and left *owed*, and its
// reply is read with the next flight, by settle. Every read of the control
// channel goes through expect or finalReply, which settle first, so an owed
// reply can never be taken for the answer to a later command; this file holds
// the only reads (scripts/check.sh greps for others).

// sessionCmd is one session command: what to send and what its outcome
// changes on the client.
type sessionCmd struct {
	name, params string
	// code is the reply that means success; zero is 200, which every session
	// command but MKD answers.
	code int
	// optional marks an extension the server may lack: being told so — 500,
	// 502, or 504 for an OPTS key — is not an error. The SITE registry
	// answers unknown subcommands at once, so sending one is the probe.
	optional bool
	// apply, if non-nil, makes the command's client-side state change. It
	// runs only once the server has answered this command: accepted is
	// false when an optional command was declined, and an error reply
	// skips it.
	apply func(accepted bool)
	// refused, if non-nil, takes the command's refusal in place of the flight
	// that reads it: whether it matters is for what was written behind the
	// command to say (Pipeline.Mkdirs).
	refused func(error)
}

// send counts and writes one command and reads nothing.
func (c *Client) send(name, params string) error {
	c.countCommand(name)
	c.written = true
	return c.ctrl.Cmd(name, "%s", params)
}

// reading precedes every read of the control channel. The first read after a
// write is where the client starts waiting out a round trip: it ends a flight,
// and flights are counted as commands are.
func (c *Client) reading() {
	if c.written {
		c.written = false
		c.obs.Registry().Counter("gridftp.client.flights").Inc()
	}
}

// owe writes the commands and leaves their replies owed.
func (c *Client) owe(cmds ...sessionCmd) error {
	for _, cmd := range cmds {
		if err := c.send(cmd.name, cmd.params); err != nil {
			return err
		}
		c.owed = append(c.owed, cmd)
	}
	return nil
}

// settle reads the final reply of every owed command, oldest first. A
// command's state change is applied only on that command's own success; a
// refusal does not stop the reading, so the channel stays in step, and the
// first one that no command's refused takes is returned. inStep is false when
// the channel itself failed: nothing more can be read from it.
func (c *Client) settle() (inStep bool, err error) {
	owed := c.owed
	c.owed = nil
	for _, cmd := range owed {
		want := cmd.code
		if want == 0 {
			want = ftp.CodeOK
		}
		c.reading()
		r, rerr := c.ctrl.Expect(want)
		declined := rerr != nil && cmd.optional &&
			(r.Code == ftp.CodeSyntaxError || r.Code == ftp.CodeNotImplemented || r.Code == ftp.CodeParamNotImpl)
		switch {
		case rerr == nil || declined:
			if cmd.apply != nil {
				cmd.apply(rerr == nil)
			}
		case r.Code == 0:
			return false, rerr
		case cmd.refused != nil:
			cmd.refused(rerr)
		case err == nil:
			err = rerr
		}
	}
	return true, err
}

// Settle reads the replies the session owes, if any, and returns the first
// refusal among them: how a caller that left a flight owed (Setup) joins it
// when it has nothing to send behind it.
func (c *Client) Settle() error {
	_, err := c.settle()
	return err
}

// batch writes every command before it reads any reply, so k commands cost
// one round trip (the server reads pipelined commands in order), and settles.
func (c *Client) batch(cmds ...sessionCmd) error {
	if err := c.owe(cmds...); err != nil {
		return err
	}
	_, err := c.settle()
	return err
}

// read settles, then lets next read the caller's own reply. An owed refusal
// is returned in place of next's outcome — after next has run, since that
// reply is on its way whatever the refusal was.
func (c *Client) read(next func() (ftp.Reply, error)) (ftp.Reply, error) {
	inStep, owedErr := c.settle()
	if !inStep {
		return ftp.Reply{}, owedErr
	}
	c.reading()
	r, err := next()
	if owedErr != nil {
		err = owedErr
	}
	return r, err
}

// expect settles, then reads one final reply and requires one of want.
func (c *Client) expect(want ...int) (ftp.Reply, error) {
	return c.read(func() (ftp.Reply, error) { return c.ctrl.Expect(want...) })
}

// finalReply settles, then reads up to the next final reply; the 1xx replies
// before it go to onPreliminary (may be nil).
func (c *Client) finalReply(onPreliminary func(ftp.Reply)) (ftp.Reply, error) {
	return c.read(func() (ftp.Reply, error) { return c.ctrl.ReadFinalReply(onPreliminary) })
}

// cmdExpect sends a command and requires one of the given reply codes. It is
// for commands whose success changes nothing here (queries, PASV, PORT): one
// that does is a sessionCmd, so that its state follows its own reply even
// when an owed refusal is what the caller gets back.
func (c *Client) cmdExpect(name, params string, want ...int) (ftp.Reply, error) {
	if err := c.send(name, params); err != nil {
		return ftp.Reply{}, err
	}
	return c.expect(want...)
}
