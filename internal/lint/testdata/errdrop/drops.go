// Corpus for the errdrop rule. Imports the real dnswire, wildnet, and
// scanner packages so the callee resolution under test is the production
// one.
package corpus

import (
	"context"
	"io"
	"strings"

	"goingwild/internal/dnswire"
	"goingwild/internal/scanner"
	"goingwild/internal/wildnet"
)

// BadStatement drops the error (and the message) on the floor.
func BadStatement(payload []byte) {
	dnswire.Unpack(payload) // want errdrop
}

// BadBlank keeps the message but blanks the error.
func BadBlank(payload []byte) *dnswire.Message {
	m, _ := dnswire.Unpack(payload) // want errdrop
	return m
}

// BadDefer defers a call whose error nobody will see.
func BadDefer(payload []byte) {
	defer dnswire.Unpack(payload) // want errdrop
}

// OKPropagated returns the error to the caller.
func OKPropagated(payload []byte) (*dnswire.Message, error) {
	return dnswire.Unpack(payload)
}

// OKHandled checks the error.
func OKHandled(payload []byte) bool {
	_, err := dnswire.Unpack(payload)
	return err == nil
}

// OKOtherPackage: dropped errors from unwatched packages are vet's
// problem, not this rule's.
func OKOtherPackage(r *strings.Reader) {
	io.ReadAll(r)
}

// AllowedDrop is suppressed.
func AllowedDrop(payload []byte) {
	dnswire.Unpack(payload) //lint:allow errdrop corpus fixture
}

// BadTransportSend drops the transport's send error with no
// annotation: a batch that never left the machine silently undercounts.
func BadTransportSend(ctx context.Context, tr wildnet.Transport, batch *wildnet.Batch) {
	tr.Send(ctx, batch) // want errdrop
}

// BadAliasedSend reaches the same interface method through the
// scanner.Transport alias; resolution still lands in wildnet. Keeping the
// count does not keep the error.
func BadAliasedSend(ctx context.Context, tr scanner.Transport, batch *wildnet.Batch) int {
	n, _ := tr.Send(ctx, batch) // want errdrop
	return n
}

// OKConcreteSend: the seam is the interface. A driver holding the
// concrete transport is timing it, not scanning through it.
func OKConcreteSend(ctx context.Context, tr *wildnet.MemTransport, batch []wildnet.Probe) {
	tr.SendBatch(ctx, batch)
}

// OKTransportSendAnnotated states the packet-loss policy explicitly.
func OKTransportSendAnnotated(ctx context.Context, tr wildnet.Transport, batch *wildnet.Batch) {
	//lint:allow errdrop corpus fixture: send failures are modeled packet loss
	tr.Send(ctx, batch)
}

// OKTransportSendPropagated returns the send error to the caller.
func OKTransportSendPropagated(ctx context.Context, tr wildnet.Transport, batch *wildnet.Batch) (int, error) {
	return tr.Send(ctx, batch)
}

// OKOtherWildnetFunc: only Send is watched by method; other
// error-returning wildnet calls stay vet's problem.
func OKOtherWildnetFunc(order uint) *wildnet.World {
	w, _ := wildnet.NewWorld(wildnet.DefaultConfig(order))
	return w
}
