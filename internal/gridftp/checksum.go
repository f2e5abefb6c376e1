package gridftp

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/adler32"
	"strconv"
	"strings"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
)

// The CKSM command (a Globus GridFTP extension) returns a checksum over a
// file region: "CKSM <algorithm> <offset> <length> <path>", length -1
// meaning to end of file. Transfer tools use it to verify integrity end to
// end after a transfer — cheaper than a second transfer and robust against
// storage-side corruption that channel-level protection cannot see.

// checksumAlgorithms maps algorithm names to constructors.
var checksumAlgorithms = map[string]func() hash.Hash{
	"MD5":     md5.New,
	"SHA256":  sha256.New,
	"ADLER32": func() hash.Hash { return adler32.New() },
}

// ChecksumFile computes the named checksum over f's [offset, offset+length)
// region (length < 0 = to EOF).
func ChecksumFile(algorithm string, f dsi.File, offset, length int64) (string, error) {
	mk, ok := checksumAlgorithms[strings.ToUpper(algorithm)]
	if !ok {
		return "", fmt.Errorf("gridftp: unsupported checksum algorithm %q", algorithm)
	}
	size, err := f.Size()
	if err != nil {
		return "", err
	}
	if offset < 0 || offset > size {
		return "", fmt.Errorf("gridftp: checksum offset %d out of range", offset)
	}
	end := size
	if length >= 0 && offset+length < size {
		end = offset + length
	}
	h := mk()
	pool := poolFor(DefaultBlockSize)
	buf := pool.Lease()
	defer pool.Release(buf)
	for off := offset; off < end; {
		n := min(int64(len(buf)), end-off)
		if err := readAtFull(f, buf[:n], off); err != nil {
			return "", err
		}
		h.Write(buf[:n])
		off += n
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// handleCksm implements the server side of CKSM.
func (sess *session) handleCksm(params string) {
	fields := strings.Fields(params)
	if len(fields) < 4 {
		sess.reply(ftp.CodeParamSyntaxError, "CKSM <algorithm> <offset> <length> <path>")
		return
	}
	offset, err1 := strconv.ParseInt(fields[1], 10, 64)
	length, err2 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil {
		sess.reply(ftp.CodeParamSyntaxError, "Bad CKSM offsets")
		return
	}
	p := sess.resolve(strings.Join(fields[3:], " "))
	f, err := sess.srv.cfg.Storage.Open(sess.localUser, p)
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	defer f.Close()
	sum, err := ChecksumFile(fields[0], f, offset, length)
	if err != nil {
		sess.reply(ftp.CodeParamNotImpl, errText(err))
		return
	}
	sess.reply(ftp.CodeFileStatus, sum)
}

// Checksum asks the server for a checksum over a file region (length < 0 =
// to end of file).
func (c *Client) Checksum(algorithm, path string, offset, length int64) (string, error) {
	r, err := c.cmdExpect("CKSM", fmt.Sprintf("%s %d %d %s", strings.ToUpper(algorithm), offset, length, path), ftp.CodeFileStatus)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(r.Lines[0]), nil
}

// VerifyTransfer compares the server's checksum of path against a local
// file, returning an error on mismatch — the end-to-end integrity check
// transfer tools run after a copy.
func (c *Client) VerifyTransfer(algorithm, path string, local dsi.File) error {
	remote, err := c.Checksum(algorithm, path, 0, -1)
	if err != nil {
		return err
	}
	localSum, err := ChecksumFile(algorithm, local, 0, -1)
	if err != nil {
		return err
	}
	if remote != localSum {
		return fmt.Errorf("gridftp: checksum mismatch for %s: remote %s != local %s", path, remote, localSum)
	}
	return nil
}
