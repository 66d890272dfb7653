package lint

import (
	"go/ast"
)

// This file is the control-flow core of the flow-sensitive hotpath rule.
// The syntactic rules are single-statement pattern matchers; an
// allocation on one arm of a branch only exists across branches, and an
// allocation after a return lies on no path at all. A CFG makes "on some
// reachable path" answerable.
//
// The builder lowers one function body to basic blocks. Compound
// statements are flattened: a block never contains a statement that owns
// nested blocks of its own (those live in successor blocks); it contains
// simple statements and the evaluated fragments of compound ones (an if
// condition, a switch tag, a range header). Analyzers therefore see every
// node exactly once, in execution order, by walking Blocks in order and
// each block's Nodes in order.

// Block is one basic block: a maximal straight-line node sequence with a
// single entry and a set of successor edges.
type Block struct {
	// Index is the block's creation order, which is also a valid
	// iteration order for deterministic output.
	Index int
	// Nodes holds, in execution order: simple statements (assignments,
	// calls, sends, defers, returns, ...) and the evaluated fragments of
	// compound statements (an if/for condition expression, a switch tag,
	// a case-clause match expression, a type-switch assign). A
	// *ast.RangeStmt appears as the loop-header node of its own block;
	// consumers must not descend into its Body (which lives in successor
	// blocks) — walkBlockNode does this correctly.
	Nodes []ast.Node
	// Succs are the control-flow successors in creation order.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry *Block
	// Exit is the single synthetic exit block: every return, every panic
	// with no recover in sight, and the body's fall-off-the-end all lead
	// here. Deferred calls conceptually run on entry to Exit.
	Exit   *Block
	Blocks []*Block
	// Defers lists every defer statement in the body, in source order.
	// Whether one has executed on a given path is a dataflow question
	// (the DeferStmt node appears in its block); Defers exists so
	// analyzers can enumerate what might run at Exit.
	Defers []*ast.DeferStmt
}

// Reachable returns the set of blocks reachable from Entry. Statements in
// unreachable blocks exist in the graph (dead code after a return still
// parses) but lie on no path, so path-sensitive rules skip them.
func (g *CFG) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(g.Entry)
	return seen
}

// BuildCFG lowers body to basic blocks. A nil body (a declared but
// externally-implemented function) yields a two-block graph with an
// entry→exit edge.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edgeTo(b.cfg.Exit)
	b.patchGotos()
	return b.cfg
}

// loopFrame records the jump targets one enclosing loop (or switch/select,
// for break) establishes.
type loopFrame struct {
	label       string // of the enclosing LabeledStmt, "" if none
	breakTarget *Block
	contTarget  *Block // nil for switch/select frames
	isLoop      bool
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil after a terminator; next stmt starts an unreachable block
	frames []loopFrame
	// label pending for the next loop/switch statement (from LabeledStmt).
	pendingLabel string
	labels       map[string]*Block
	gotos        []pendingGoto
	// fallTargets tracks the next-clause block for fallthrough,
	// innermost switch last.
	fallTargets []*Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// block returns the current block, materializing an unreachable one after
// a terminator so dead statements still get graph nodes.
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

// edgeTo links the current block to dst and leaves cur untouched.
func (b *cfgBuilder) edgeTo(dst *Block) {
	if b.cur == nil {
		return
	}
	for _, s := range b.cur.Succs {
		if s == dst {
			return
		}
	}
	b.cur.Succs = append(b.cur.Succs, dst)
}

// jump links the current block to dst and terminates it.
func (b *cfgBuilder) jump(dst *Block) {
	b.edgeTo(dst)
	b.cur = nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is a goto target and names the next loop/switch for
		// labeled break/continue.
		target := b.newBlock()
		b.jump(target)
		b.cur = target
		if b.labels == nil {
			b.labels = map[string]*Block{}
		}
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.block()
		after := b.newBlock()
		thenBlk := b.newBlock()
		condBlk.Succs = append(condBlk.Succs, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.Succs = append(condBlk.Succs, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.jump(after)
		} else {
			condBlk.Succs = append(condBlk.Succs, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		body := b.newBlock()
		head.Succs = append(head.Succs, body)
		if s.Cond != nil {
			head.Succs = append(head.Succs, after)
		}
		// continue re-evaluates Post then the condition.
		contTarget := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			contTarget = post
		}
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: after, contTarget: contTarget, isLoop: true})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if post != nil {
			b.jump(post)
			b.cur = post
			b.stmt(s.Post)
			b.jump(head)
		} else {
			b.jump(head)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		// The RangeStmt node itself is the loop header: analyzers read
		// Key/Value/X off it (walkBlockNode never enters Body).
		b.add(s)
		after := b.newBlock()
		body := b.newBlock()
		head.Succs = append(head.Succs, body, after)
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: after, contTarget: head, isLoop: true})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.jump(head)
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List, func(c *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, 0, len(c.List))
			for _, e := range c.List {
				nodes = append(nodes, e)
			}
			return nodes, c.Body, c.List == nil
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List, func(c *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
			nodes := make([]ast.Node, 0, len(c.List))
			for _, e := range c.List {
				nodes = append(nodes, e)
			}
			return nodes, c.Body, c.List == nil
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.block()
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: after})
		hasDefault := false
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			if comm.Comm == nil {
				hasDefault = true
			}
			clause := b.newBlock()
			head.Succs = append(head.Succs, clause)
			b.cur = clause
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.jump(after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		// A select with no default blocks until a case fires; with no
		// cases at all it blocks forever, so after stays unreachable
		// (no edge from head was ever added).
		_ = hasDefault
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.BranchStmt:
		b.add(s)
		b.branch(s)

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			// A panic abandons the normal control flow; the deferred
			// calls still run, but "all paths out of the function" rules
			// conventionally exclude panic paths.
			b.cur = nil
		}

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// switchClauses builds the clause blocks of a switch/type-switch,
// including fallthrough edges and the implicit no-default exit.
func (b *cfgBuilder) switchClauses(label string, list []ast.Stmt, split func(*ast.CaseClause) ([]ast.Node, []ast.Stmt, bool)) {
	head := b.block()
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTarget: after})
	bodies := make([]*Block, len(list))
	hasDefault := false
	for i, cs := range list {
		c := cs.(*ast.CaseClause)
		matches, _, isDefault := split(c)
		if isDefault {
			hasDefault = true
		}
		clause := b.newBlock()
		bodies[i] = clause
		head.Succs = append(head.Succs, clause)
		clause.Nodes = append(clause.Nodes, matches...)
	}
	if !hasDefault {
		head.Succs = append(head.Succs, after)
	}
	for i, cs := range list {
		c := cs.(*ast.CaseClause)
		_, body, _ := split(c)
		b.cur = bodies[i]
		// fallthrough inside the body is resolved against the next
		// clause block.
		b.fallTargets = append(b.fallTargets, nil)
		if i+1 < len(list) {
			b.fallTargets[len(b.fallTargets)-1] = bodies[i+1]
		}
		b.stmtList(body)
		b.fallTargets = b.fallTargets[:len(b.fallTargets)-1]
		b.jump(after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if s.Label != nil && f.label != s.Label.Name {
				continue
			}
			b.jump(f.breakTarget)
			return
		}
		b.cur = nil
	case "continue":
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if !f.isLoop {
				continue
			}
			if s.Label != nil && f.label != s.Label.Name {
				continue
			}
			b.jump(f.contTarget)
			return
		}
		b.cur = nil
	case "goto":
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.block(), label: s.Label.Name})
		}
		b.cur = nil
	case "fallthrough":
		if n := len(b.fallTargets); n > 0 && b.fallTargets[n-1] != nil {
			b.jump(b.fallTargets[n-1])
			return
		}
		b.cur = nil
	}
}

// patchGotos resolves forward gotos once every label block exists.
func (b *cfgBuilder) patchGotos() {
	for _, g := range b.gotos {
		dst, ok := b.labels[g.label]
		if !ok {
			continue // malformed source; the type checker already rejected it
		}
		found := false
		for _, s := range g.from.Succs {
			if s == dst {
				found = true
			}
		}
		if !found {
			g.from.Succs = append(g.from.Succs, dst)
		}
	}
}

// takeLabel consumes the pending statement label (set by LabeledStmt for
// the loop/switch that follows it).
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// isPanicCall reports a direct call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// walkBlockNode visits n and its evaluated subexpressions the way the CFG
// means them: a *ast.RangeStmt node is a loop header, so only its
// Key/Value/X are visited (the body lives in other blocks). Everything
// else walks normally. fn returning false prunes the subtree, which is
// how consumers stop at nested function literals.
func walkBlockNode(n ast.Node, fn func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		// The header node itself is visible, but only its evaluated
		// parts are descended.
		if !fn(rs) {
			return
		}
		for _, e := range []ast.Expr{rs.Key, rs.Value, rs.X} {
			if e != nil {
				ast.Inspect(e, fn)
			}
		}
		return
	}
	ast.Inspect(n, fn)
}
