// Package connd exercises the conndeadline analyzer: conn I/O must be
// dominated by a deadline on the same conn value, per direction, with
// helper functions whose name mentions Deadline arming the conn too, and
// I/O through bufio/json wrappers of the conn counting as I/O on it.
package connd

import (
	"bufio"
	"encoding/json"
	"net"
	"time"
)

func armedWrite(conn net.Conn, b []byte) error {
	if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := conn.Write(b) // ok: dominated by SetDeadline
	return err
}

func nakedWrite(conn net.Conn, b []byte) error {
	_, err := conn.Write(b) // want "Write on \"conn\" is not dominated"
	return err
}

func nakedRead(conn net.Conn, b []byte) error {
	_, err := conn.Read(b) // want "Read on \"conn\" is not dominated"
	return err
}

func halfArmed(conn net.Conn, b []byte) {
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return
	}
	if _, err := conn.Read(b); err != nil { // ok: the read side is armed
		return
	}
	if _, err := conn.Write(b); err != nil { // want "Write on \"conn\" is not dominated"
		return
	}
}

func conditionallyArmed(conn net.Conn, armed bool, b []byte) {
	if armed {
		if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
			return
		}
	}
	if _, err := conn.Read(b); err != nil { // want "Read on \"conn\" is not dominated"
		return
	}
}

func armedInLoop(conn *net.TCPConn, b []byte) {
	for i := 0; i < 8; i++ {
		if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return
		}
		if _, err := conn.Read(b); err != nil { // ok: re-armed every iteration
			return
		}
	}
}

func helperArmed(conn net.Conn, b []byte) error {
	if err := armDeadline(conn, time.Second); err != nil {
		return err
	}
	_, err := conn.Write(b) // ok: the Deadline-named helper armed the conn
	return err
}

func armDeadline(c net.Conn, d time.Duration) error {
	return c.SetDeadline(time.Now().Add(d))
}

func twoConns(a, b net.Conn, buf []byte) {
	if err := a.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return
	}
	if _, err := a.Read(buf); err != nil { // ok: a is armed
		return
	}
	if _, err := b.Read(buf); err != nil { // want "Read on \"b\" is not dominated"
		return
	}
}

func allowedProbe(conn net.Conn, b []byte) {
	//lint:allow conndeadline the watchdog tears this socket down; no deadline wanted
	if _, err := conn.Read(b); err != nil {
		return
	}
}

func allowNeedsReason(conn net.Conn, b []byte) {
	// want-below "//lint:allow conndeadline needs a reason"
	//lint:allow conndeadline
	if _, err := conn.Read(b); err != nil { // want "Read on \"conn\" is not dominated"
		return
	}
}

// readHelperThenWrite: a helper named for read deadlines arms reads only.
func readHelperThenWrite(conn net.Conn, b []byte) {
	if err := setReadDeadline(conn, time.Now().Add(time.Second)); err != nil {
		return
	}
	if _, err := conn.Read(b); err != nil { // ok: the helper armed the read side
		return
	}
	if _, err := conn.Write(b); err != nil { // want "Write on \"conn\" is not dominated"
		return
	}
}

func setReadDeadline(c net.Conn, t time.Time) error {
	return c.SetReadDeadline(t)
}

// nakedScan reads through a scanner on an unarmed conn.
func nakedScan(conn net.Conn) string {
	sc := bufio.NewScanner(conn)
	if !sc.Scan() { // want "Read on \"conn\" via sc.Scan is not dominated"
		return ""
	}
	return sc.Text()
}

// unarmedReplyLoop is a query loop whose idle read deadline covers the
// command read but nothing covers the reply: a peer that stops reading
// replies parks the handler in Encode forever.
func unarmedReplyLoop(conn net.Conn, idle time.Duration) {
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return
		}
		if !sc.Scan() { // ok: the read side is armed
			return
		}
		enc.Encode(sc.Text()) // want "Write on \"conn\" via enc.Encode is not dominated"
	}
}

// armedReplyLoop arms the reply write too.
func armedReplyLoop(conn net.Conn, idle time.Duration) {
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	for {
		if err := setReadDeadline(conn, time.Now().Add(idle)); err != nil {
			return
		}
		if !sc.Scan() { // ok: armed by the read-deadline helper
			return
		}
		if conn.SetWriteDeadline(time.Now().Add(idle)) != nil || enc.Encode(sc.Text()) != nil { // ok: armed just before
			return
		}
	}
}

// bufferedWriter: Flush is the write that reaches the conn.
func bufferedWriter(conn net.Conn, line string) error {
	w := bufio.NewWriter(conn)
	if _, err := w.WriteString(line); err != nil { // want "Write on \"conn\" via w.WriteString is not dominated"
		return err
	}
	return w.Flush() // want "Write on \"conn\" via w.Flush is not dominated"
}
