"""Covering numbers of finite p-groups by proper-subgroup families.

The toolkit builds small groups from validated multiplication tables,
enumerates their full subgroup lattices with structural flags (abelian,
normal, powerful, powerfully embedded) and their maximal subgroups, and
computes exact minimum covers of a group by each family of proper
subgroups, with verified witnesses.  Claim suites, catalog sweeps and file import/export round it
out; the `powcov` command exposes all of it.
Each public name is imported from the module that defines it, e.g.
``from powcov.groups import build_group``; importing this package loads none.
"""

__version__ = "0.1.0"
