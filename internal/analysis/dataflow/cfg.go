// Package dataflow is the flow-sensitive half of the pandia-vet framework:
// an SSA-lite intraprocedural dataflow engine built only on go/ast and
// go/types. It has two pieces:
//
//   - CFG construction (this file): a function body is decomposed into basic
//     blocks of atomic statements connected by control-flow edges, covering
//     if/for/range/switch/type-switch/select, labeled break/continue/goto,
//     and early returns. Compound statements never appear inside a block —
//     only their header expressions do — so a pass can replay a block's
//     nodes in order without re-entering control flow.
//   - A forward fixed-point solver (solver.go) parameterised by a Lattice,
//     iterating block transfer functions to convergence.
//
// The locks engine builds on it and analyses one function at a time;
// function literal bodies are opaque to the enclosing function's graph.
package dataflow

import (
	"go/ast"
)

// Block is one basic block: a maximal run of straight-line nodes.
type Block struct {
	// Index is the block's position in Graph.Blocks (construction order;
	// Entry is 0).
	Index int
	// Nodes holds the block's atomic statements and control expressions in
	// execution order. Entries are ast.Stmt or ast.Expr; compound statement
	// bodies are decomposed into successor blocks and never appear here.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	// Exit is the unique synthetic exit block: every return statement and
	// the fall-off-the-end path lead here.
	Exit   *Block
	Blocks []*Block
}

// builder carries the state of one CFG construction.
type builder struct {
	g   *Graph
	cur *Block
	// branch targets: innermost-first stacks for break and continue, with
	// the statement labels that name them.
	breaks    []branchTarget
	continues []branchTarget
	// labels maps label names to the blocks goto jumps to; gotos seen before
	// their label are patched at the end.
	labels        map[string]*Block
	pendingGotos  map[string][]*Block
	pendingLabel  string
	pendingTarget map[string]*Block // label -> loop/switch header for labeled break/continue
}

type branchTarget struct {
	label string
	block *Block
}

// New builds the CFG of one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:             &Graph{},
		labels:        make(map[string]*Block),
		pendingGotos:  make(map[string][]*Block),
		pendingTarget: make(map[string]*Block),
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Fall off the end of the body.
	b.edge(b.cur, b.g.Exit)
	// Unresolved gotos (labels in dead code) conservatively reach exit.
	for _, srcs := range b.pendingGotos {
		for _, s := range srcs {
			b.edge(s, b.g.Exit)
		}
	}
	return b.g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// startBlock begins a new block reachable from the current one.
func (b *builder) startBlock() *Block {
	nxt := b.newBlock()
	b.edge(b.cur, nxt)
	b.cur = nxt
	return nxt
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		header := b.cur
		join := b.newBlock()

		thenBlk := b.newBlock()
		b.edge(header, thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)

		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(header, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(header, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock()
		b.edge(b.cur, header)
		b.cur = header
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(header, body)
		if s.Cond != nil {
			b.edge(header, exit)
		}
		// Post statement gets its own block so continue targets it.
		post := header
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, header)
		}
		b.pushLoop(post, exit)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, post)
		b.popLoop()
		b.cur = exit

	case *ast.RangeStmt:
		// The range header both evaluates X and assigns Key/Value each
		// iteration; keep the whole statement as the header node.
		header := b.newBlock()
		b.edge(b.cur, header)
		header.Nodes = append(header.Nodes, s)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(header, body)
		b.edge(header, exit)
		b.pushLoop(header, exit)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, header)
		b.popLoop()
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body.List, false)

	case *ast.SelectStmt:
		header := b.cur
		exit := b.newBlock()
		b.pushBreakOnly(exit)
		hasDefault := false
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			if comm.Comm == nil {
				hasDefault = true
			}
			caseBlk := b.newBlock()
			b.edge(header, caseBlk)
			b.cur = caseBlk
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.edge(b.cur, exit)
		}
		if len(s.Body.List) == 0 || !hasDefault {
			// A select with no default blocks until a case fires; with no
			// cases it blocks forever. Either way exit stays reachable only
			// through cases — but keep the graph connected for the solver.
			if len(s.Body.List) == 0 {
				b.edge(header, exit)
			}
		}
		b.popLoop()
		b.cur = exit

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		lbl := s.Label.Name
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// The loop/switch builder will register the label with its own
			// break/continue targets.
			b.pendingLabel = lbl
			b.stmt(s.Stmt)
			b.pendingLabel = ""
		default:
			target := b.startBlock()
			b.labels[lbl] = target
			for _, src := range b.pendingGotos[lbl] {
				b.edge(src, target)
			}
			delete(b.pendingGotos, lbl)
			b.stmt(s.Stmt)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Atomic statements: assignments, declarations, expressions, send,
		// inc/dec, go, defer.
		b.add(s)
	}
}

// switchBody lays out expression/type switch cases. fallthroughOK enables
// fallthrough edges (expression switches only).
func (b *builder) switchBody(clauses []ast.Stmt, fallthroughOK bool) {
	header := b.cur
	exit := b.newBlock()
	b.pushBreakOnly(exit)

	caseBlocks := make([]*Block, len(clauses))
	for i := range clauses {
		caseBlocks[i] = b.newBlock()
		b.edge(header, caseBlocks[i])
	}
	hasDefault := false
	for i, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		endsInFallthrough := false
		if n := len(cc.Body); fallthroughOK && n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				endsInFallthrough = true
			}
		}
		b.stmtList(cc.Body)
		if endsInFallthrough && i+1 < len(clauses) {
			b.edge(b.cur, caseBlocks[i+1])
		} else {
			b.edge(b.cur, exit)
		}
	}
	if !hasDefault {
		b.edge(header, exit)
	}
	b.popLoop()
	b.cur = exit
}

// pushLoop registers break/continue targets for a loop, honouring a pending
// statement label.
func (b *builder) pushLoop(cont, brk *Block) {
	b.breaks = append(b.breaks, branchTarget{b.pendingLabel, brk})
	b.continues = append(b.continues, branchTarget{b.pendingLabel, cont})
	b.pendingLabel = ""
}

// pushBreakOnly registers a break target (switch/select); continue passes
// through to the enclosing loop.
func (b *builder) pushBreakOnly(brk *Block) {
	b.breaks = append(b.breaks, branchTarget{b.pendingLabel, brk})
	b.continues = append(b.continues, branchTarget{label: "\x00none"})
	b.pendingLabel = ""
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	find := func(stack []branchTarget) *Block {
		for i := len(stack) - 1; i >= 0; i-- {
			t := stack[i]
			if t.label == "\x00none" {
				continue // switch frame is transparent to continue
			}
			if label == "" || t.label == label {
				return t.block
			}
		}
		return nil
	}
	switch s.Tok.String() {
	case "break":
		if t := find(b.breaks); t != nil {
			b.edge(b.cur, t)
		}
	case "continue":
		if t := find(b.continues); t != nil {
			b.edge(b.cur, t)
		}
	case "goto":
		if t, ok := b.labels[label]; ok {
			b.edge(b.cur, t)
		} else {
			b.pendingGotos[label] = append(b.pendingGotos[label], b.cur)
		}
	case "fallthrough":
		// Edge added by switchBody from the current block; control continues
		// into the next case, so the current block stays live.
		return
	}
	b.cur = b.newBlock() // code after an unconditional branch is unreachable
}
