"""Recursive-descent parser producing the meshlite AST.

The parser builds no tree deeper than MAX_DEPTH, so that neither it nor
the passes after it outgrow Python's stack: a block, a parenthesis, a
call's arguments, a type's arguments, and each binary or postfix operator
of a chain go one level deeper.
"""

from . import ast
from .ast import MAX_DEPTH
from .errors import ParseError
from .lexer import END, Token, tokenize

ACCESSORS = {"localblocks", "localblockid", "low", "high"}

# Binary operators by precedence level, loosest first; each level is
# left-associative, and the level past the last is a postfix expression.
_LEVELS = (("==", "!=", "<", "<=", ">", ">="), ("+", "-"), ("*", "/"))


class Parser:
    def __init__(self, tokens: list[Token]):
        # A second end token after the first lets peek(1) index past the
        # end of input without a bounds check; advance never passes the first.
        self.tokens = list(tokens)
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        self.depth = 0  # how deep the tree being built nests at this token

    # --- token plumbing ---

    def peek(self, offset=0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != END:
            self.pos += 1
        return tok

    def check(self, kind, lexeme=None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (lexeme is None or tok.lexeme == lexeme)

    def match(self, kind, lexeme=None) -> bool:
        if self.check(kind, lexeme):
            self.advance()
            return True
        return False

    def expect(self, kind, lexeme=None, what=None) -> Token:
        if self.check(kind, lexeme):
            return self.advance()
        tok = self.peek()
        wanted = what or (lexeme if lexeme else kind)
        got = tok.lexeme if tok.kind != END else "end of input"
        raise ParseError(f"expected {wanted}, got {got!r}", tok.line, tok.column)

    def deeper(self, tok):
        """Go one level deeper into the tree, at tok."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"source nests more than {MAX_DEPTH} deep", tok.line, tok.column)

    def expect_semi(self):
        """Statements end with `;`, omissible before a closing brace."""
        if self.match("punctuation", ";"):
            return
        if self.check("punctuation", "}"):
            return
        self.expect("punctuation", ";")

    # --- program ---

    def parse_program(self) -> ast.Program:
        stmts = []
        first = self.peek()
        while not self.check(END):
            stmts.extend(self.parse_statement())
        return ast.Program(tuple(stmts), line=first.line, column=first.column)

    def parse_statement(self) -> list:
        """Parse one statement; var lists split into one node per name."""
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.lexeme == "var":
                return self.parse_var_decl()
            if tok.lexeme == "for":
                return [self.parse_for()]
            if tok.lexeme == "proc":
                return [self.parse_proc()]
            if tok.lexeme == "sync":
                return [self.parse_sync()]
            if tok.lexeme == "function":
                return [self.parse_funcdef()]
            raise ParseError(f"unexpected keyword {tok.lexeme!r}", tok.line, tok.column)
        if tok.kind == "identifier":
            expr = self.parse_postfix()
            if self.match("operator", ":="):
                value = self.parse_expr()
                self.expect_semi()
                self._check_lvalue(expr)
                return [ast.Assign(expr, value, line=tok.line, column=tok.column)]
            self.expect_semi()
            return [ast.ExprStmt(expr, line=tok.line, column=tok.column)]
        raise ParseError(f"expected a statement, got {tok.lexeme!r}", tok.line, tok.column)

    def _check_lvalue(self, expr):
        e = expr
        depth = 0
        while isinstance(e, ast.Index):
            e = e.base
            depth += 1
        if not isinstance(e, ast.Name):
            raise ParseError("invalid assignment target", expr.line, expr.column)
        if depth > 2:
            raise ParseError(
                "A[b][i][k] := v is not supported: a block line is assigned whole; "
                "assign a line of equal length instead (A[b][i] := line)",
                expr.line, expr.column)

    def parse_var_decl(self) -> list:
        self.expect("keyword", "var")
        names = [self.expect("identifier", what="variable name")]
        while self.match("punctuation", ","):
            names.append(self.expect("identifier", what="variable name"))
        type_expr = None
        if self.match("operator", ":"):
            type_expr = self.parse_type_expr()
        init = None
        if self.match("operator", ":="):
            init = self.parse_expr()
        self.expect_semi()
        return [
            ast.VarDecl(n.lexeme, type_expr, init, line=n.line, column=n.column)
            for n in names
        ]

    def parse_for(self) -> ast.For:
        kw = self.expect("keyword", "for")
        var = self.expect("identifier", what="loop variable").lexeme
        self.expect("keyword", "from")
        start = self.parse_expr()
        self.expect("keyword", "to")
        stop = self.parse_expr()
        if self.check("punctuation", "{"):
            body = self.parse_block()
            self.match("punctuation", ";")
        else:
            self.deeper(self.peek())
            body = tuple(self.parse_statement())
            self.depth -= 1
        return ast.For(var, start, stop, body, line=kw.line, column=kw.column)

    def parse_proc(self) -> ast.ProcBlock:
        kw = self.expect("keyword", "proc")
        rank = self.parse_expr()
        body = self.parse_block()
        self.match("punctuation", ";")
        return ast.ProcBlock(rank, body, line=kw.line, column=kw.column)

    def parse_sync(self) -> ast.Sync:
        kw = self.expect("keyword", "sync")
        var = None
        if self.check("identifier"):
            var = self.advance().lexeme
        self.expect_semi()
        return ast.Sync(var, line=kw.line, column=kw.column)

    def parse_funcdef(self) -> ast.FuncDef:
        kw = self.expect("keyword", "function")
        name = self.expect("identifier", what="function name").lexeme
        self.expect("punctuation", "(")
        params = []
        if not self.check("punctuation", ")"):
            while True:
                p = self.expect("identifier", what="parameter name")
                self.expect("operator", ":")
                te = self.parse_type_expr()
                params.append(ast.Param(p.lexeme, te, line=p.line, column=p.column))
                if not self.match("punctuation", ","):
                    break
        self.expect("punctuation", ")")
        body = self.parse_block()
        self.match("punctuation", ";")
        return ast.FuncDef(name, tuple(params), body, line=kw.line, column=kw.column)

    def parse_block(self) -> tuple:
        self.deeper(self.expect("punctuation", "{"))
        stmts = []
        while not self.check("punctuation", "}"):
            if self.check(END):
                tok = self.peek()
                raise ParseError("unterminated block", tok.line, tok.column)
            stmts.extend(self.parse_statement())
        self.expect("punctuation", "}")
        self.depth -= 1
        return tuple(stmts)

    # --- type expressions ---

    def parse_type_expr(self) -> ast.TypeExpr:
        first = self.peek()
        apps = [self.parse_type_app()]
        while self.match("operator", "::"):
            apps.append(self.parse_type_app())
        return ast.TypeExpr(tuple(apps), line=first.line, column=first.column)

    def parse_type_app(self) -> ast.TypeApp:
        name = self.expect("identifier", what="type constructor")
        args = []
        has_args = False
        if self.check("punctuation", "["):
            has_args = True
            self.deeper(self.advance())
            if not self.check("punctuation", "]"):
                while True:
                    args.append(self.parse_type_arg())
                    if not self.match("punctuation", ","):
                        break
            self.expect("punctuation", "]")
            self.depth -= 1
        return ast.TypeApp(name.lexeme, tuple(args), has_args,
                           line=name.line, column=name.column)

    def parse_type_arg(self):
        """Constructor argument: nested type chain or plain expression.

        A bare identifier stays an expression node; the chain builder
        decides by constructor signature whether it names a type.
        """
        if self.check("identifier"):
            nxt = self.peek(1)
            if nxt.kind == "punctuation" and nxt.lexeme == "[":
                te = self.parse_type_expr()
                return te
            # lookahead for `ident :: ...` which must be a chain
            if nxt.kind == "operator" and nxt.lexeme == "::":
                return self.parse_type_expr()
        return self.parse_expr()

    # --- expressions ---

    def parse_expr(self, level=0):
        """A chain of _LEVELS[level]'s operators over the next level's operands."""
        ops = _LEVELS[level]
        level += 1
        last = level == len(_LEVELS)
        left = self.parse_postfix() if last else self.parse_expr(level)
        op = self.tokens[self.pos]
        n = 0  # operators: each goes one level deeper
        while op.kind == "operator" and op.lexeme in ops:
            n += 1
            self.deeper(self.advance())
            right = self.parse_postfix() if last else self.parse_expr(level)
            left = ast.BinOp(op.lexeme, left, right, line=op.line, column=op.column)
            op = self.tokens[self.pos]
        self.depth -= n
        return left

    def parse_postfix(self):
        expr = self.parse_primary()
        n = 0  # postfix operators: each goes one level deeper
        while True:
            tok = self.tokens[self.pos]
            if tok.kind != "punctuation":
                break
            if tok.lexeme == "[":
                n += 1
                self.deeper(self.advance())
                index = self.parse_expr()
                self.expect("punctuation", "]")
                expr = ast.Index(expr, index, line=tok.line, column=tok.column)
            elif tok.lexeme == ".":
                dot = self.advance()
                n += 1
                self.deeper(dot)
                member = self.expect("identifier", what="accessor name")
                if member.lexeme not in ACCESSORS:
                    raise ParseError(
                        f"unknown accessor {member.lexeme!r} (expected one of "
                        f"{', '.join(sorted(ACCESSORS))})",
                        member.line, member.column)
                arg = None
                if member.lexeme == "localblockid":
                    self.expect("punctuation", "[")
                    arg = self.parse_expr()
                    self.expect("punctuation", "]")
                expr = ast.Accessor(expr, member.lexeme, arg,
                                    line=dot.line, column=dot.column)
            else:
                break
        if n:
            self.depth -= n
        return expr

    def parse_primary(self):
        tok = self.tokens[self.pos]
        if tok.kind == "integer-literal":
            self.advance()
            return ast.IntLit(int(tok.lexeme), line=tok.line, column=tok.column)
        if tok.kind == "real-literal":
            self.advance()
            return ast.RealLit(float(tok.lexeme), line=tok.line, column=tok.column)
        if tok.kind == "string-literal":
            self.advance()
            return ast.StrLit(tok.lexeme[1:-1], line=tok.line, column=tok.column)
        if tok.kind == "identifier":
            name = self.advance()
            if self.check("punctuation", "("):
                self.deeper(self.advance())
                args = []
                if not self.check("punctuation", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.match("punctuation", ","):
                            break
                self.expect("punctuation", ")")
                self.depth -= 1
                return ast.Call(name.lexeme, tuple(args),
                                line=name.line, column=name.column)
            return ast.Name(name.lexeme, line=name.line, column=name.column)
        if tok.kind == "punctuation" and tok.lexeme == "(":
            self.deeper(self.advance())
            inner = self.parse_expr()
            self.expect("punctuation", ")")
            self.depth -= 1
            return inner
        got = tok.lexeme if tok.kind != END else "end of input"
        raise ParseError(f"expected an expression, got {got!r}", tok.line, tok.column)


def parse(source_or_tokens) -> ast.Program:
    """Parse source text or a token list into a Program."""
    if isinstance(source_or_tokens, str):
        source_or_tokens = tokenize(source_or_tokens)
    return Parser(source_or_tokens).parse_program()
