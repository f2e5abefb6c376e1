package gridftp

import (
	"fmt"

	"gridftp.dev/instant/internal/dsi"
)

// Command pipelining (§II.A [11] of the paper): for lots-of-small-files
// workloads the per-file command/reply round trips dominate, so the client
// sends all transfer commands back-to-back and processes the data flows
// and replies in order. Combined with data channel caching this removes
// every per-file RTT except the data itself.

// GetItem pairs a remote path with its local destination.
type GetItem struct {
	Path string
	Dst  dsi.File
}

// GetMany downloads the items over one session with pipelined RETR
// commands (active mode). It stops at the first failure and returns it,
// after reading the server's refusal of every command queued behind the
// failed one.
func (c *Client) GetMany(items []GetItem) error {
	if len(items) == 0 {
		return nil
	}
	if c.spec.Mode != ModeExtended {
		return fmt.Errorf("gridftp: pipelining requires MODE E")
	}
	// Pipeline: all commands at once, behind the PORT they need.
	if err := c.activeFlight(len(items), func() error {
		for _, it := range items {
			if err := c.send("RETR", it.Path); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Then drain the transfers in order.
	for i, it := range items {
		if err := c.recvOne(it.Dst); err != nil {
			c.drainQueued(len(items) - i - 1)
			return fmt.Errorf("gridftp: pipelined get %d (%s): %w", i, it.Path, err)
		}
	}
	return nil
}

// drainQueued reads the final reply to each of the n transfer commands
// still queued behind a transfer that failed. The failure left the server
// without a data path (and this end has dropped its own), so each is
// refused at once; reading the refusals is what keeps the control channel
// in step for whatever the caller sends next.
func (c *Client) drainQueued(n int) {
	for ; n > 0; n-- {
		if _, err := c.finalReply(nil); err != nil {
			return // the channel failed; there is nothing left to keep in step
		}
	}
}

// recvOne receives one MODE E transfer using pooled or fresh channels and
// consumes its final reply (canceling the receive if the reply reports an
// error, e.g. a 550 for a missing file mid-pipeline).
func (c *Client) recvOne(dst dsi.File) error {
	res, r, rerr := c.recvWithReplies(dst, NewRangeSet())
	switch {
	case rerr != nil:
		return rerr
	case r.Err() != nil:
		return r.Err()
	case res.Err != nil:
		return res.Err
	}
	return nil
}
