"""Structural front end of hierarchical designs (``repro.hier.structure``).

Covers the parse forms (component declarations, named and positional port
maps), the resolved :class:`DesignHierarchy` shape, instantiation
detection, and every structural error path — all of which
raise :class:`~repro.errors.HierarchyError`, a subclass of the flat
pipeline's :class:`~repro.errors.ElaborationError` (so the CLI exit code is
unchanged).
"""

import pytest

from repro import workloads
from repro.errors import ElaborationError, HierarchyError
from repro.hier import build_hierarchy, has_instantiations
from repro.vhdl import ast
from repro.vhdl.parser import parse_program


LEAF = """
entity leaf is
  port( a : in std_logic;
        q : out std_logic );
end leaf;

architecture rtl of leaf is
begin
  q <= (not a);
end rtl;
"""

COMPONENT = """
  component leaf is
    port( a : in std_logic;
          q : out std_logic );
  end component leaf;
"""


def top(body, declarations="", ports=None):
    """A root entity around ``body``, with the leaf component in scope."""
    ports = ports or "x : in std_logic;\n        y : out std_logic"
    return (
        LEAF
        + f"""
entity top is
  port( {ports} );
end top;

architecture rtl of top is
{COMPONENT}
{declarations}
begin
{body}
end rtl;
"""
    )


class TestDetection:
    def test_flat_sources_have_no_instantiations(self):
        # every flat workload must stay on the flat plan
        for name, source in workloads.batch_workload_sources():
            assert not has_instantiations(parse_program(source)), name

    def test_every_hierarchy_workload_instantiates(self):
        for name, source in workloads.hierarchy_workload_sources():
            assert has_instantiations(parse_program(source)), name

    def test_detection_reads_the_program_not_the_text(self):
        # A comment mentioning "port map" is not an instantiation.
        source = workloads.paper_program_a() + "\n-- port map discussion\n"
        assert not has_instantiations(parse_program(source))


class TestResolution:
    def test_mux_workload_resolves(self):
        program = parse_program(workloads.hierarchical_mux_program())
        hierarchy = build_hierarchy(program)
        assert hierarchy.root == "mux_top"
        # bottom-up order: the leaf entity precedes the root
        assert [name.lower() for name in hierarchy.order] == ["stage", "mux_top"]
        root = hierarchy.root_unit
        assert [inst.label for inst in root.instances] == ["u1", "u2"]

    def test_positional_and_named_maps_normalise_identically(self):
        program = parse_program(workloads.hierarchical_mux_program())
        u1, u2 = build_hierarchy(program).root_unit.instances
        # u1 is named, u2 positional; both come out in port declaration order
        assert [formal for formal, _ in u1.bindings] == ["a", "b", "y"]
        assert [formal for formal, _ in u2.bindings] == ["a", "b", "y"]
        assert dict(u1.bindings) == {"a": "hi", "b": "sel", "y": "n1"}
        assert dict(u2.bindings) == {"a": "lo", "b": "sel", "y": "n2"}

    def test_three_level_hierarchy_counts_instances(self):
        program = parse_program(
            workloads.hierarchical_bus_program(banks=2, cells_per_bank=2, depth=3)
        )
        hierarchy = build_hierarchy(program)
        # 2 banks + 2*2 cells = 6 instances in the expanded tree
        assert hierarchy.instance_count() == 6

    def test_explicit_root_selects_a_subtree(self):
        program = parse_program(workloads.hierarchical_mux_program())
        hierarchy = build_hierarchy(program, "stage")
        assert hierarchy.root == "stage"
        assert hierarchy.root_unit.instances == []

    def test_hierarchy_error_is_an_elaboration_error(self):
        assert issubclass(HierarchyError, ElaborationError)


class TestErrorPaths:
    def check(self, source, *fragments, entity=None):
        with pytest.raises(HierarchyError) as excinfo:
            build_hierarchy(parse_program(source), entity)
        message = str(excinfo.value)
        for fragment in fragments:
            assert fragment in message, message

    def test_unknown_component(self):
        # the unresolvable component also defeats root inference, so the
        # root is explicit here
        source = top("  u1 : ghost port map (x, y);")
        self.check(source, "unknown component 'ghost'", entity="top")

    def test_component_without_entity(self):
        source = top(
            "  u1 : phantom port map (x, y);",
            declarations=(
                "  component phantom is\n"
                "    port( a : in std_logic;\n"
                "          q : out std_logic );\n"
                "  end component phantom;"
            ),
        )
        self.check(
            source, "'phantom' does not name a declared entity", entity="top"
        )

    def test_component_entity_interface_mismatch(self):
        source = top(
            "  u1 : leaf port map (x, y);",
        ).replace("q : out std_logic );\n  end component", "p : out std_logic );\n  end component")
        self.check(source, "does not match entity 'leaf'")

    def test_too_many_associations(self):
        source = top("  u1 : leaf port map (x, y, x);")
        self.check(source, "3 associations", "2 ports")

    def test_unknown_formal(self):
        source = top("  u1 : leaf port map (a => x, z => y);")
        self.check(source, "unknown formal port 'z'")

    def test_formal_bound_twice(self):
        source = top("  u1 : leaf port map (a => x, a => y);")
        self.check(source, "formal port 'a' bound twice")

    def test_unbound_formal(self):
        source = top("  u1 : leaf port map (a => x);")
        self.check(source, "unbound formal port(s) 'q'")

    def test_positional_after_named_is_a_parse_error(self):
        # the grammar itself rejects this form, before structure ever sees it
        from repro.errors import ParseError

        source = top("  u1 : leaf port map (a => x, y);")
        with pytest.raises(ParseError, match="positional association"):
            parse_program(source)

    def test_actual_must_be_a_signal_of_the_parent(self):
        source = top("  u1 : leaf port map (nosuch, y);")
        self.check(source, "'nosuch'", "not a signal of the enclosing architecture")

    def test_duplicate_instance_label(self):
        source = top(
            "  u1 : leaf port map (x, n1);\n  u1 : leaf port map (x, y);",
            declarations="  signal n1 : std_logic;",
        )
        self.check(source, "duplicate instance label 'u1'")

    def test_out_port_aliasing_is_rejected(self):
        # binding an out formal and another formal to one actual conflates
        # the kill sets; both analysis routes refuse it up front
        source = top(
            "  u1 : leaf port map (n1, n1);",
            declarations="  signal n1 : std_logic;",
        )
        self.check(source, "aliasing a written port is not supported")

    def test_in_in_aliasing_is_allowed(self):
        source = (
            """
entity leaf2 is
  port( a : in std_logic;
        b : in std_logic;
        q : out std_logic );
end leaf2;

architecture rtl of leaf2 is
begin
  q <= (a and b);
end rtl;

entity top is
  port( x : in std_logic;
        y : out std_logic );
end top;

architecture rtl of top is
  component leaf2 is
    port( a : in std_logic;
          b : in std_logic;
          q : out std_logic );
  end component leaf2;
begin
  u1 : leaf2 port map (x, x, y);
end rtl;
"""
        )
        hierarchy = build_hierarchy(parse_program(source))
        assert dict(hierarchy.root_unit.instances[0].bindings) == {
            "a": "x",
            "b": "x",
            "q": "y",
        }

    def test_write_to_own_in_port(self):
        source = LEAF.replace("q <= (not a);", "q <= (not a);\n  a <= q;")
        self.check(source, "entity 'leaf'", "assigns to input port 'a'")

    def test_instantiation_cycle(self):
        source = """
entity a is
  port( x : in std_logic;
        y : out std_logic );
end a;

architecture rtl of a is
  component b is
    port( x : in std_logic;
          y : out std_logic );
  end component b;
begin
  u1 : b port map (x, y);
end rtl;

entity b is
  port( x : in std_logic;
        y : out std_logic );
end b;

architecture rtl of b is
  component a is
    port( x : in std_logic;
          y : out std_logic );
  end component a;
begin
  u1 : a port map (x, y);
end rtl;
"""
        with pytest.raises(HierarchyError) as excinfo:
            build_hierarchy(parse_program(source), "a")
        assert "instantiation cycle: a -> b -> a" in str(excinfo.value)

    def test_ambiguous_root(self):
        # two independent designs in one file: the root cannot be inferred
        source = workloads.hierarchical_mux_program().replace(
            "mux_top", "alt_top", 0
        )
        doubled = (
            workloads.hierarchical_mux_program()
            + workloads.hierarchical_mux_program()
            .replace("mux_top", "alt_top")
            .replace("stage", "stage2")
            .replace("u1", "v1")
            .replace("u2", "v2")
        )
        with pytest.raises(HierarchyError) as excinfo:
            build_hierarchy(parse_program(doubled))
        assert "ambiguous root entity" in str(excinfo.value)
        # but an explicit entity still resolves either one
        assert build_hierarchy(parse_program(doubled), "alt_top").root == "alt_top"

    def test_duplicate_component_declaration(self):
        source = top("  u1 : leaf port map (x, y);", declarations=COMPONENT)
        self.check(source, "duplicate component declaration 'leaf'")


class TestNormalisation:
    def test_blocks_are_spliced_and_declarations_hoisted(self):
        source = top(
            """  blk : block
    signal inner : std_logic;
  begin
    u1 : leaf port map (inner, y);
    inner <= x;
  end block blk;""",
        )
        unit = build_hierarchy(parse_program(source)).root_unit
        assert [decl.name for decl in unit.signals] == ["inner"]
        assert [inst.label for inst in unit.instances] == ["u1"]
        assert len(unit.leaves) == 1
        assert isinstance(unit.leaves[0], ast.ConcurrentAssign)
