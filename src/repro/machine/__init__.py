"""The database model of computation (Section 2 of the paper).

A guest machine is a linear array (or ring, or 2-D mesh) of processors
``g_1 .. g_m`` with unit-delay links.  Processor ``g_i`` owns a
*database* ``b_i``.  At step ``t`` it consults ``b_i`` and the three
pebbles ``(i-1,t-1)``, ``(i,t-1)``, ``(i+1,t-1)``, produces pebble
``(i,t)`` (a value plus the database *update* this computation incurs),
and applies the update to ``b_i``.  Databases are too large to ship
across links; updates (pebbles) are small and can be shipped.

Modules
-------
mixing    : deterministic 64-bit mixing primitives, in matched scalar
            (Python int) and vectorised (numpy uint64) forms.
database  : replicated database state with order-sensitive digests.
pebbles   : pebble coordinates, dependency rule, dependency cones.
programs  : concrete guest programs (counter/ledger, dataflow, keyed
            store, token, polynomial hash chain).
guest     : 1-D guest machines and the reference (ground-truth) executor.
guestnd   : the m^D guest arrays of Section 5 (D = 2 is Theorem 7's
            m x m guest) and their reference executor.
host      : host descriptions (linear arrays with delays; general graphs).
"""

from repro.machine.database import Database
from repro.machine.pebbles import BOUNDARY_LEFT, BOUNDARY_RIGHT, parents, cone_size
from repro.machine.programs import (
    CounterProgram,
    DataflowProgram,
    HashChainProgram,
    KeyedStoreProgram,
    LedgerProgram,
    Program,
    TokenProgram,
    get_program,
    list_programs,
)
from repro.machine.udsl import UserProgram, check_determinism, program_from_step
from repro.machine.guest import GuestArray, GuestRing, ReferenceRun
from repro.machine.guestnd import GuestND, ReferenceRunND
from repro.machine.host import HostArray, HostGraph

__all__ = [
    "Database",
    "BOUNDARY_LEFT",
    "BOUNDARY_RIGHT",
    "parents",
    "cone_size",
    "Program",
    "CounterProgram",
    "DataflowProgram",
    "KeyedStoreProgram",
    "LedgerProgram",
    "TokenProgram",
    "HashChainProgram",
    "get_program",
    "list_programs",
    "UserProgram",
    "program_from_step",
    "check_determinism",
    "GuestArray",
    "GuestRing",
    "ReferenceRun",
    "GuestND",
    "ReferenceRunND",
    "HostArray",
    "HostGraph",
]
