// Package rpc models Topaz remote procedure call (§4.1): the uniform
// communication mechanism of the Firefly world. It provides real message
// marshalling (the bytes that would cross the wire), the cycle-level
// runtime that drives it over the simulated Ethernet, and the closed-form
// throughput bound of the same transport — client marshal, Ethernet
// transmission, server processing, reply — whose stage costs are
// calibrated to the MicroVAX Firefly. The headline reproduction target is §6: "our RPC data transfer
// protocol, with multiple outstanding calls, achieves very high
// performance. The remote server can sustain a bandwidth of 4.6 megabits
// per second using an average of three concurrent threads."
package rpc

import (
	"encoding/binary"
	"fmt"
)

// MsgKind distinguishes calls from replies.
type MsgKind uint8

const (
	// Call is a request message.
	Call MsgKind = 1
	// Reply is a response message.
	Reply MsgKind = 2
)

// Message is one RPC packet.
type Message struct {
	Kind MsgKind
	// ID matches replies to calls.
	ID uint32
	// Proc is the remote procedure number.
	Proc uint16
	// Payload is the argument or result data.
	Payload []byte
}

// headerBytes is the marshalled header size.
const headerBytes = 1 + 4 + 2 + 4 // kind, id, proc, payload length

// MaxPayload bounds a single message (the transfer protocol fragments
// larger data).
const MaxPayload = 1 << 16

// Marshal encodes the message.
func (m *Message) Marshal() ([]byte, error) {
	if m.Kind != Call && m.Kind != Reply {
		return nil, fmt.Errorf("rpc: bad message kind %d", m.Kind)
	}
	if len(m.Payload) > MaxPayload {
		return nil, fmt.Errorf("rpc: payload %d exceeds %d", len(m.Payload), MaxPayload)
	}
	buf := make([]byte, headerBytes+len(m.Payload))
	buf[0] = byte(m.Kind)
	binary.BigEndian.PutUint32(buf[1:], m.ID)
	binary.BigEndian.PutUint16(buf[5:], m.Proc)
	binary.BigEndian.PutUint32(buf[7:], uint32(len(m.Payload)))
	copy(buf[headerBytes:], m.Payload)
	return buf, nil
}

// Unmarshal decodes a message.
func Unmarshal(buf []byte) (*Message, error) {
	if len(buf) < headerBytes {
		return nil, fmt.Errorf("rpc: short message (%d bytes)", len(buf))
	}
	m := &Message{
		Kind: MsgKind(buf[0]),
		ID:   binary.BigEndian.Uint32(buf[1:]),
		Proc: binary.BigEndian.Uint16(buf[5:]),
	}
	if m.Kind != Call && m.Kind != Reply {
		return nil, fmt.Errorf("rpc: bad message kind %d", m.Kind)
	}
	n := binary.BigEndian.Uint32(buf[7:])
	if n > MaxPayload {
		return nil, fmt.Errorf("rpc: payload length %d exceeds %d", n, MaxPayload)
	}
	if len(buf) != headerBytes+int(n) {
		return nil, fmt.Errorf("rpc: length mismatch: header says %d, have %d", n, len(buf)-headerBytes)
	}
	m.Payload = append([]byte(nil), buf[headerBytes:]...)
	return m, nil
}

// WireBits returns the message's size on the Ethernet in bits, including
// per-fragment framing overhead (Ethernet header + RPC transport header,
// ~46 bytes per 1500-byte fragment).
func (m *Message) WireBits() uint64 {
	total := headerBytes + len(m.Payload)
	frags := (total + 1499) / 1500
	if frags == 0 {
		frags = 1
	}
	return uint64(total+46*frags) * 8
}
