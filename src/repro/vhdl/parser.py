"""Recursive-descent parser for the VHDL1 concrete syntax.

The accepted concrete syntax is standard VHDL notation for the constructs of
the paper's Figure 1 grammar::

    entity enc is
      port( key : in std_logic_vector(7 downto 0);
            ct  : out std_logic_vector(7 downto 0) );
    end enc;

    architecture behav of enc is
      signal tmp : std_logic_vector(7 downto 0);
    begin
      p0 : process
        variable x : std_logic_vector(7 downto 0);
      begin
        x := key xor "10101010";
        tmp <= x;
        wait on key;
      end process p0;

      b0 : block
        signal internal : std_logic;
      begin
        internal <= '1';
      end block b0;
    end behav;

Compared to the abstract grammar the parser additionally accepts:

* ``if``/``elsif``/``else``/``end if`` chains (desugared to nested :class:`If`);
* ``while e loop ... end loop`` as well as the paper's ``while e do ... end``;
* ``wait;``, ``wait on S;``, ``wait until e;`` with the paper's defaults;
* single-bit indexing ``x(3)``, treated as the slice ``x(3 downto 3)``;
* optional process sensitivity lists (rewritten to a trailing ``wait on``
  statement during elaboration, which is how VHDL defines them).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.vhdl import ast
from repro.vhdl.lexer import tokenize
from repro.vhdl.tokens import Token, TokenKind


class Parser:
    """Parses a token stream into VHDL1 abstract syntax."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._last = len(tokens) - 1
        self._index = 0

    # ------------------------------------------------------------------ utils
    #
    # The lookahead helpers are the parser's hottest code: they index the
    # token list directly (the list always ends with EOF and ``_advance``
    # never moves past it, so ``self._index`` is always in range) and compare
    # keyword texts with ``==`` — the lexer normalises keyword tokens to
    # lower case, so no per-call ``str.lower()`` is needed.

    def _peek(self, offset: int = 0) -> Token:
        index = self._index + offset
        if index > self._last:
            index = self._last
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._tokens[self._index].kind is kind

    def _check_keyword(self, word: str) -> bool:
        token = self._tokens[self._index]
        return token.kind is TokenKind.KEYWORD and token.text == word

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _match_keyword(self, word: str) -> Optional[Token]:
        if self._check_keyword(word):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, description: str) -> Token:
        if self._check(kind):
            return self._advance()
        token = self._peek()
        raise ParseError(
            f"expected {description}, found {token.text!r}", token.position
        )

    def _expect_keyword(self, word: str) -> Token:
        if self._check_keyword(word):
            return self._advance()
        token = self._peek()
        raise ParseError(f"expected '{word}', found {token.text!r}", token.position)

    def _expect_identifier(self, description: str) -> Token:
        if self._check(TokenKind.IDENTIFIER):
            return self._advance()
        token = self._peek()
        raise ParseError(
            f"expected {description}, found {token.text!r}", token.position
        )

    def _at_end(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    # -------------------------------------------------------------- programs

    def parse_program(self) -> ast.Program:
        """Parse a whole program: any number of entities and architectures."""
        program = ast.Program()
        while not self._at_end():
            if self._check_keyword("entity"):
                program.entities.append(self._parse_entity())
            elif self._check_keyword("architecture"):
                program.architectures.append(self._parse_architecture())
            else:
                token = self._peek()
                raise ParseError(
                    f"expected 'entity' or 'architecture', found {token.text!r}",
                    token.position,
                )
        return program

    # -------------------------------------------------------------- entities

    def _parse_entity(self) -> ast.Entity:
        start = self._expect_keyword("entity")
        name = self._expect_identifier("entity name").text
        self._expect_keyword("is")
        ports: List[ast.Port] = []
        if self._check_keyword("port"):
            self._advance()
            self._expect(TokenKind.LPAREN, "'('")
            ports = self._parse_port_list()
            self._expect(TokenKind.RPAREN, "')'")
            self._expect(TokenKind.SEMICOLON, "';'")
        self._expect_keyword("end")
        # optional "entity" keyword and repeated name
        self._match_keyword("entity")
        if self._check(TokenKind.IDENTIFIER):
            closing = self._advance().text
            if closing != name:
                raise ParseError(
                    f"entity closing name {closing!r} does not match {name!r}",
                    start.position,
                )
        self._expect(TokenKind.SEMICOLON, "';'")
        return ast.Entity(name=name, ports=ports, position=start.position)

    def _parse_port_list(self) -> List[ast.Port]:
        ports: List[ast.Port] = []
        while True:
            ports.extend(self._parse_port_clause())
            if self._match(TokenKind.SEMICOLON):
                if self._check(TokenKind.RPAREN):
                    break
                continue
            break
        return ports

    def _parse_port_clause(self) -> List[ast.Port]:
        # name {, name} : in|out type
        names = [self._expect_identifier("port name")]
        while self._match(TokenKind.COMMA):
            names.append(self._expect_identifier("port name"))
        self._expect(TokenKind.COLON, "':'")
        if self._match_keyword("in"):
            mode = ast.PortMode.IN
        elif self._match_keyword("out"):
            mode = ast.PortMode.OUT
        else:
            token = self._peek()
            raise ParseError(
                f"expected port mode 'in' or 'out', found {token.text!r}",
                token.position,
            )
        port_type = self._parse_type()
        return [
            ast.Port(
                name=tok.text, mode=mode, port_type=port_type, position=tok.position
            )
            for tok in names
        ]

    # ----------------------------------------------------------------- types

    def _parse_type(self) -> ast.TypeNode:
        token = self._peek()
        if self._match_keyword("std_logic"):
            return ast.StdLogicType(position=token.position)
        if self._match_keyword("std_logic_vector"):
            self._expect(TokenKind.LPAREN, "'('")
            left = int(self._expect(TokenKind.INTEGER, "integer bound").text)
            direction = self._parse_direction()
            right = int(self._expect(TokenKind.INTEGER, "integer bound").text)
            self._expect(TokenKind.RPAREN, "')'")
            return ast.StdLogicVectorType(
                position=token.position, left=left, right=right, direction=direction
            )
        raise ParseError(
            f"expected a type, found {token.text!r}", token.position
        )

    def _parse_direction(self) -> ast.RangeDirection:
        if self._match_keyword("downto"):
            return ast.RangeDirection.DOWNTO
        if self._match_keyword("to"):
            return ast.RangeDirection.TO
        token = self._peek()
        raise ParseError(
            f"expected 'downto' or 'to', found {token.text!r}", token.position
        )

    # --------------------------------------------------------- architectures

    def _parse_architecture(self) -> ast.Architecture:
        start = self._expect_keyword("architecture")
        name = self._expect_identifier("architecture name").text
        self._expect_keyword("of")
        entity_name = self._expect_identifier("entity name").text
        self._expect_keyword("is")
        declarations = self._parse_declarations()
        self._expect_keyword("begin")
        body: List[ast.ConcurrentStatement] = []
        while not self._check_keyword("end"):
            body.append(self._parse_concurrent_statement())
        self._expect_keyword("end")
        self._match_keyword("architecture")
        if self._check(TokenKind.IDENTIFIER):
            self._advance()
        self._expect(TokenKind.SEMICOLON, "';'")
        return ast.Architecture(
            name=name,
            entity_name=entity_name,
            declarations=declarations,
            body=body,
            position=start.position,
        )

    # -------------------------------------------------------------- declarations

    def _parse_declarations(self) -> List[ast.Declaration]:
        declarations: List[ast.Declaration] = []
        while (
            self._check_keyword("variable")
            or self._check_keyword("signal")
            or self._check_keyword("component")
        ):
            if self._check_keyword("component"):
                declarations.append(self._parse_component_declaration())
            else:
                declarations.append(self._parse_declaration())
        return declarations

    def _parse_component_declaration(self) -> ast.ComponentDeclaration:
        # component NAME [is] port( ... ); end component [NAME];
        start = self._expect_keyword("component")
        name = self._expect_identifier("component name").text
        self._match_keyword("is")
        ports: List[ast.Port] = []
        if self._check_keyword("port"):
            self._advance()
            self._expect(TokenKind.LPAREN, "'('")
            ports = self._parse_port_list()
            self._expect(TokenKind.RPAREN, "')'")
            self._expect(TokenKind.SEMICOLON, "';'")
        self._expect_keyword("end")
        self._expect_keyword("component")
        if self._check(TokenKind.IDENTIFIER):
            closing = self._advance().text
            if closing != name:
                raise ParseError(
                    f"component closing name {closing!r} does not match {name!r}",
                    start.position,
                )
        self._expect(TokenKind.SEMICOLON, "';'")
        return ast.ComponentDeclaration(
            position=start.position, name=name, ports=ports
        )

    def _parse_declaration(self) -> ast.Declaration:
        token = self._peek()
        if self._match_keyword("variable"):
            name = self._expect_identifier("variable name").text
            self._expect(TokenKind.COLON, "':'")
            var_type = self._parse_type()
            initial = None
            if self._match(TokenKind.ASSIGN_VAR):
                initial = self._parse_expression()
            self._expect(TokenKind.SEMICOLON, "';'")
            return ast.VariableDeclaration(
                position=token.position, name=name, var_type=var_type, initial=initial
            )
        if self._match_keyword("signal"):
            name = self._expect_identifier("signal name").text
            self._expect(TokenKind.COLON, "':'")
            sig_type = self._parse_type()
            initial = None
            if self._match(TokenKind.ASSIGN_VAR):
                initial = self._parse_expression()
            self._expect(TokenKind.SEMICOLON, "';'")
            return ast.SignalDeclaration(
                position=token.position, name=name, sig_type=sig_type, initial=initial
            )
        raise ParseError(
            f"expected 'variable' or 'signal', found {token.text!r}", token.position
        )

    # -------------------------------------------------- concurrent statements

    def _parse_concurrent_statement(self) -> ast.ConcurrentStatement:
        token = self._peek()
        # labelled process or block:  name : process|block ...
        if (
            self._check(TokenKind.IDENTIFIER)
            and self._peek(1).kind is TokenKind.COLON
            and (self._peek(2).is_keyword("process") or self._peek(2).is_keyword("block"))
        ):
            label = self._advance().text
            self._advance()  # colon
            if self._check_keyword("process"):
                return self._parse_process(label, token)
            return self._parse_block(label, token)
        # labelled component instantiation:  name : component port map (...)
        if (
            self._check(TokenKind.IDENTIFIER)
            and self._peek(1).kind is TokenKind.COLON
            and self._peek(2).kind is TokenKind.IDENTIFIER
        ):
            return self._parse_instantiation()
        if self._check_keyword("process"):
            raise ParseError("process statements must carry a label", token.position)
        if self._check_keyword("block"):
            raise ParseError("block statements must carry a label", token.position)
        # otherwise: a concurrent signal assignment
        assignment = self._parse_signal_assignment_statement()
        return ast.ConcurrentAssign(position=token.position, assignment=assignment)

    def _parse_instantiation(self) -> ast.ComponentInstantiation:
        start = self._advance()  # instance label
        self._advance()  # colon
        component = self._expect_identifier("component name").text
        self._expect_keyword("port")
        self._expect_keyword("map")
        self._expect(TokenKind.LPAREN, "'('")
        associations: List[ast.PortAssociation] = []
        seen_named = False
        while True:
            assoc_token = self._peek()
            formal: Optional[str] = None
            if (
                self._check(TokenKind.IDENTIFIER)
                and self._peek(1).kind is TokenKind.ARROW
            ):
                formal = self._advance().text
                self._advance()  # =>
                seen_named = True
            elif seen_named:
                raise ParseError(
                    "positional association may not follow named association "
                    "in a port map",
                    assoc_token.position,
                )
            if not self._check(TokenKind.IDENTIFIER):
                bad = self._peek()
                raise ParseError(
                    f"expected a signal name as port-map actual, found {bad.text!r}",
                    bad.position,
                )
            actual = self._parse_name_expression()
            if not isinstance(actual, ast.Name):
                raise ParseError(
                    "port-map actuals must be plain signal names (no slices)",
                    actual.position,
                )
            associations.append(
                ast.PortAssociation(
                    actual=actual, formal=formal, position=assoc_token.position
                )
            )
            if self._match(TokenKind.COMMA):
                continue
            break
        self._expect(TokenKind.RPAREN, "')'")
        self._expect(TokenKind.SEMICOLON, "';'")
        return ast.ComponentInstantiation(
            position=start.position,
            label=start.text,
            component=component,
            associations=associations,
        )

    def _parse_process(self, label: str, start: Token) -> ast.ProcessStatement:
        self._expect_keyword("process")
        sensitivity: Tuple[str, ...] = ()
        if self._match(TokenKind.LPAREN):
            names = [self._expect_identifier("signal name").text]
            while self._match(TokenKind.COMMA):
                names.append(self._expect_identifier("signal name").text)
            self._expect(TokenKind.RPAREN, "')'")
            sensitivity = tuple(names)
        self._match_keyword("is")
        declarations = self._parse_declarations()
        self._expect_keyword("begin")
        body = self._parse_statement_list(("end",))
        self._expect_keyword("end")
        self._expect_keyword("process")
        if self._check(TokenKind.IDENTIFIER):
            closing = self._advance().text
            if closing != label:
                raise ParseError(
                    f"process closing label {closing!r} does not match {label!r}",
                    start.position,
                )
        self._expect(TokenKind.SEMICOLON, "';'")
        return ast.ProcessStatement(
            position=start.position,
            name=label,
            declarations=declarations,
            body=body,
            sensitivity=sensitivity,
        )

    def _parse_block(self, label: str, start: Token) -> ast.BlockStatement:
        self._expect_keyword("block")
        self._match_keyword("is")
        declarations = self._parse_declarations()
        self._expect_keyword("begin")
        body: List[ast.ConcurrentStatement] = []
        while not self._check_keyword("end"):
            body.append(self._parse_concurrent_statement())
        self._expect_keyword("end")
        self._expect_keyword("block")
        if self._check(TokenKind.IDENTIFIER):
            closing = self._advance().text
            if closing != label:
                raise ParseError(
                    f"block closing label {closing!r} does not match {label!r}",
                    start.position,
                )
        self._expect(TokenKind.SEMICOLON, "';'")
        return ast.BlockStatement(
            position=start.position, name=label, declarations=declarations, body=body
        )

    # -------------------------------------------------------------- statements

    def _parse_statement_list(self, terminators: Tuple[str, ...]) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        tokens = self._tokens
        keyword = TokenKind.KEYWORD
        eof = TokenKind.EOF
        while True:
            token = tokens[self._index]
            kind = token.kind
            if kind is eof or (kind is keyword and token.text in terminators):
                break
            statements.append(self._parse_statement())
        return statements

    def _parse_statement(self) -> ast.Statement:
        token = self._peek()
        if self._check_keyword("null"):
            self._advance()
            self._expect(TokenKind.SEMICOLON, "';'")
            return ast.Null(position=token.position)
        if self._check_keyword("wait"):
            return self._parse_wait()
        if self._check_keyword("if"):
            return self._parse_if()
        if self._check_keyword("while"):
            return self._parse_while()
        if self._check(TokenKind.IDENTIFIER):
            return self._parse_assignment()
        raise ParseError(
            f"expected a statement, found {token.text!r}", token.position
        )

    def _parse_target(self) -> Tuple[str, Optional[Tuple[int, int, ast.RangeDirection]], Token]:
        name_token = self._expect_identifier("assignment target")
        target_slice: Optional[Tuple[int, int, ast.RangeDirection]] = None
        if self._check(TokenKind.LPAREN):
            self._advance()
            left = int(self._expect(TokenKind.INTEGER, "integer index").text)
            if self._check_keyword("downto") or self._check_keyword("to"):
                direction = self._parse_direction()
                right = int(self._expect(TokenKind.INTEGER, "integer bound").text)
            else:
                direction = ast.RangeDirection.DOWNTO
                right = left
            self._expect(TokenKind.RPAREN, "')'")
            target_slice = (left, right, direction)
        return name_token.text, target_slice, name_token

    def _parse_assignment(self) -> ast.Statement:
        target, target_slice, name_token = self._parse_target()
        if self._match(TokenKind.ASSIGN_VAR):
            value = self._parse_expression()
            self._expect(TokenKind.SEMICOLON, "';'")
            return ast.VariableAssign(
                position=name_token.position,
                target=target,
                target_slice=target_slice,
                value=value,
            )
        if self._match(TokenKind.ASSIGN_SIG):
            value = self._parse_expression()
            self._expect(TokenKind.SEMICOLON, "';'")
            return ast.SignalAssign(
                position=name_token.position,
                target=target,
                target_slice=target_slice,
                value=value,
            )
        token = self._peek()
        raise ParseError(
            f"expected ':=' or '<=' after assignment target, found {token.text!r}",
            token.position,
        )

    def _parse_signal_assignment_statement(self) -> ast.SignalAssign:
        target, target_slice, name_token = self._parse_target()
        self._expect(TokenKind.ASSIGN_SIG, "'<='")
        value = self._parse_expression()
        self._expect(TokenKind.SEMICOLON, "';'")
        return ast.SignalAssign(
            position=name_token.position,
            target=target,
            target_slice=target_slice,
            value=value,
        )

    def _parse_wait(self) -> ast.Wait:
        start = self._expect_keyword("wait")
        signals: Tuple[str, ...] = ()
        condition: Optional[ast.Expression] = None
        if self._match_keyword("on"):
            names = [self._expect_identifier("signal name").text]
            while self._match(TokenKind.COMMA):
                names.append(self._expect_identifier("signal name").text)
            signals = tuple(names)
        if self._match_keyword("until"):
            condition = self._parse_expression()
        self._expect(TokenKind.SEMICOLON, "';'")
        wait = ast.Wait(position=start.position, signals=signals, condition=condition)
        if not wait.signals and wait.condition is not None:
            # paper default: omitted 'on S' means 'on FS(e)'
            wait.signals = tuple(sorted(ast.free_names(wait.condition)))
        return wait

    def _parse_if(self) -> ast.If:
        start = self._expect_keyword("if")
        condition = self._parse_expression()
        self._expect_keyword("then")
        then_branch = self._parse_statement_list(("else", "elsif", "end"))
        else_branch: List[ast.Statement] = []
        if self._check_keyword("elsif"):
            # desugar: elsif chain becomes a nested if in the else branch
            nested = self._parse_elsif()
            else_branch = [nested]
        elif self._match_keyword("else"):
            else_branch = self._parse_statement_list(("end",))
            self._expect_keyword("end")
            self._expect_keyword("if")
            self._expect(TokenKind.SEMICOLON, "';'")
        else:
            self._expect_keyword("end")
            self._expect_keyword("if")
            self._expect(TokenKind.SEMICOLON, "';'")
        if not else_branch:
            else_branch = [ast.Null(position=start.position)]
        return ast.If(
            position=start.position,
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
        )

    def _parse_elsif(self) -> ast.If:
        start = self._expect_keyword("elsif")
        condition = self._parse_expression()
        self._expect_keyword("then")
        then_branch = self._parse_statement_list(("else", "elsif", "end"))
        else_branch: List[ast.Statement] = []
        if self._check_keyword("elsif"):
            else_branch = [self._parse_elsif()]
        elif self._match_keyword("else"):
            else_branch = self._parse_statement_list(("end",))
            self._expect_keyword("end")
            self._expect_keyword("if")
            self._expect(TokenKind.SEMICOLON, "';'")
        else:
            self._expect_keyword("end")
            self._expect_keyword("if")
            self._expect(TokenKind.SEMICOLON, "';'")
        if not else_branch:
            else_branch = [ast.Null(position=start.position)]
        return ast.If(
            position=start.position,
            condition=condition,
            then_branch=then_branch,
            else_branch=else_branch,
        )

    def _parse_while(self) -> ast.While:
        start = self._expect_keyword("while")
        condition = self._parse_expression()
        if self._match_keyword("loop"):
            body = self._parse_statement_list(("end",))
            self._expect_keyword("end")
            self._expect_keyword("loop")
            self._expect(TokenKind.SEMICOLON, "';'")
        elif self._match_keyword("do"):
            body = self._parse_statement_list(("end",))
            self._expect_keyword("end")
            self._match_keyword("loop")
            self._expect(TokenKind.SEMICOLON, "';'")
        else:
            token = self._peek()
            raise ParseError(
                f"expected 'loop' or 'do' after while condition, found {token.text!r}",
                token.position,
            )
        return ast.While(position=start.position, condition=condition, body=body)

    # -------------------------------------------------------------- expressions
    #
    # Precedence (loosest to tightest), following VHDL:
    #   logical:    and or xor nand nor xnor
    #   relational: = /= < <= > >=
    #   adding:     + - &
    #   multiplying:* /
    #   unary:      not, - (negation is not in VHDL1; kept out)
    #   primary:    literals, names, parenthesised expressions

    def _parse_expression(self) -> ast.Expression:
        return self._parse_logical()

    _LOGICAL_OPS = frozenset({"and", "or", "xor", "nand", "nor", "xnor"})

    def _parse_logical(self) -> ast.Expression:
        left = self._parse_relational()
        tokens = self._tokens
        keyword = TokenKind.KEYWORD
        logical_ops = self._LOGICAL_OPS
        while True:
            token = tokens[self._index]
            if token.kind is not keyword or token.text not in logical_ops:
                break
            op_token = self._advance()
            right = self._parse_relational()
            left = ast.BinaryOp(
                position=op_token.position,
                operator=op_token.text,
                left=left,
                right=right,
            )
        return left

    _RELATIONAL_KINDS = {
        TokenKind.EQ: "=",
        TokenKind.NEQ: "/=",
        TokenKind.LT: "<",
        TokenKind.ASSIGN_SIG: "<=",  # `<=` inside an expression is relational
        TokenKind.GT: ">",
        TokenKind.GE: ">=",
    }

    def _parse_relational(self) -> ast.Expression:
        left = self._parse_adding()
        kind = self._tokens[self._index].kind
        if kind in self._RELATIONAL_KINDS:
            op_token = self._advance()
            right = self._parse_adding()
            return ast.BinaryOp(
                position=op_token.position,
                operator=self._RELATIONAL_KINDS[kind],
                left=left,
                right=right,
            )
        return left

    _ADDING_KINDS = {
        TokenKind.PLUS: "+",
        TokenKind.MINUS: "-",
        TokenKind.AMPERSAND: "&",
    }

    def _parse_adding(self) -> ast.Expression:
        left = self._parse_multiplying()
        while self._tokens[self._index].kind in self._ADDING_KINDS:
            op_token = self._advance()
            right = self._parse_multiplying()
            left = ast.BinaryOp(
                position=op_token.position,
                operator=self._ADDING_KINDS[op_token.kind],
                left=left,
                right=right,
            )
        return left

    _MULTIPLYING_KINDS = {TokenKind.STAR: "*", TokenKind.SLASH: "/"}

    def _parse_multiplying(self) -> ast.Expression:
        left = self._parse_unary()
        while self._tokens[self._index].kind in self._MULTIPLYING_KINDS:
            op_token = self._advance()
            right = self._parse_unary()
            left = ast.BinaryOp(
                position=op_token.position,
                operator=self._MULTIPLYING_KINDS[op_token.kind],
                left=left,
                right=right,
            )
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._check_keyword("not"):
            op_token = self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(
                position=op_token.position, operator="not", operand=operand
            )
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if self._match(TokenKind.CHAR_LITERAL):
            return ast.LogicLiteral(position=token.position, value=token.text)
        if self._match(TokenKind.STRING_LITERAL):
            return ast.VectorLiteral(position=token.position, value=token.text)
        if self._match(TokenKind.INTEGER):
            return ast.IntegerLiteral(position=token.position, value=int(token.text))
        if self._match_keyword("true"):
            return ast.LogicLiteral(position=token.position, value="1")
        if self._match_keyword("false"):
            return ast.LogicLiteral(position=token.position, value="0")
        if self._match(TokenKind.LPAREN):
            inner = self._parse_expression()
            self._expect(TokenKind.RPAREN, "')'")
            return inner
        if self._check(TokenKind.IDENTIFIER):
            return self._parse_name_expression()
        raise ParseError(
            f"expected an expression, found {token.text!r}", token.position
        )

    def _parse_name_expression(self) -> ast.Expression:
        name_token = self._advance()
        if self._check(TokenKind.LPAREN):
            self._advance()
            left = int(self._expect(TokenKind.INTEGER, "integer index").text)
            if self._check_keyword("downto") or self._check_keyword("to"):
                direction = self._parse_direction()
                right = int(self._expect(TokenKind.INTEGER, "integer bound").text)
            else:
                direction = ast.RangeDirection.DOWNTO
                right = left
            self._expect(TokenKind.RPAREN, "')'")
            return ast.SliceName(
                position=name_token.position,
                ident=name_token.text,
                left=left,
                right=right,
                direction=direction,
            )
        return ast.Name(position=name_token.position, ident=name_token.text)


# ---------------------------------------------------------------------------
# Public helpers
# ---------------------------------------------------------------------------


def parse_program(source: str, line: int = 1) -> ast.Program:
    """Parse a complete VHDL1 program from source text.

    ``line`` numbers the first line of ``source``, as in
    :func:`~repro.vhdl.lexer.tokenize`.
    """
    return Parser(tokenize(source, line)).parse_program()


_HEAD = (
    r"(?:entity[ \t]+[a-z_][a-z0-9_]*[ \t]+is"
    r"|architecture[ \t]+[a-z_][a-z0-9_]*[ \t]+of)\b"
)
#: A design unit's head at column 1: ``entity <id> is`` or
#: ``architecture <id> of``, in any case.  :data:`_UNIT_HEAD` matches the
#: line break before a head, so the scan jumps from one ``\n`` to the next
#: instead of testing for a line start at every offset; a head at offset 0
#: is :data:`_FIRST_HEAD`'s.
_UNIT_HEAD = re.compile(r"\n(?=" + _HEAD + ")", re.IGNORECASE)
_FIRST_HEAD = re.compile(_HEAD, re.IGNORECASE)


def split_units(source: str) -> List[Tuple[int, str]]:
    """Cut ``source`` at its design-unit heads: ``(first line, text)`` pairs.

    A unit runs from a head at column 1 (:data:`_UNIT_HEAD`) to the next
    one or to the end of ``source``; text before the first head belongs to
    the first unit, which starts at line 1.  The texts concatenate to
    ``source``.

    A cut falls at the start of a line, so no token but a string literal can
    span it, and a string literal spanning a line is an error on either
    side.  The parser looks ahead at most two tokens and never past the
    ``;`` closing a unit it accepts.  So when ``parse_program(text, line)``
    accepts every unit, concatenating their entities and their
    architectures gives exactly ``parse_program(source)``; when it rejects
    one, only the whole-file parse gives the file's error.
    """
    heads = [match.end() for match in _UNIT_HEAD.finditer(source)]
    if _FIRST_HEAD.match(source) is None:
        heads = heads[1:]  # the text before the first head joins its unit
    starts = [0] + heads
    units: List[Tuple[int, str]] = []
    line = 1
    for start, stop in zip(starts, starts[1:] + [len(source)]):
        units.append((line, source[start:stop]))
        line += source.count("\n", start, stop)
    return units


def parse_statement(source: str) -> ast.Statement:
    """Parse a single sequential statement (useful for tests and examples)."""
    parser = Parser(tokenize(source))
    statement = parser._parse_statement()
    if not parser._at_end():
        token = parser._peek()
        raise ParseError(
            f"unexpected trailing input {token.text!r}", token.position
        )
    return statement


def parse_statements(source: str) -> List[ast.Statement]:
    """Parse a ``;``-separated sequence of statements."""
    parser = Parser(tokenize(source))
    statements: List[ast.Statement] = []
    while not parser._at_end():
        statements.append(parser._parse_statement())
    return statements


def parse_expression(source: str) -> ast.Expression:
    """Parse a single expression."""
    parser = Parser(tokenize(source))
    expression = parser._parse_expression()
    if not parser._at_end():
        token = parser._peek()
        raise ParseError(
            f"unexpected trailing input {token.text!r}", token.position
        )
    return expression
