"""Finite-quotient reachability and CTL analysis for register automata.

The submodules split along the pipeline.  Without numpy: ``core`` defines
automata, their concrete semantics and the step sampler behind ``regmc
simulate``; ``classes`` the representative matrices that name valuation
classes, with their closed-form counts; ``formulas`` the CTL syntax; and
``dsl`` the textual formats.  On numpy: ``matrices`` the universe of
classes as a table of one marker valuation per class; ``reach`` successor
computation (one relational join over table columns per transition),
reachability over the quotient and the ``LabelSet`` views that answer node
sets; and ``ctl`` the branching-time checker.  ``cli`` is the command-line
front end, and imports each module only in the subcommands that run it.
The literal constraint scans that judge the engine live with the tests
(``tests/reference.py`` and ``tests/eqlogic.py``), not here.

Each name is imported from the module that defines it
(``from regmc.reach import quotient_graph``); importing the package itself
loads no submodule.
"""

__version__ = "0.1.0"
