import functools
import itertools

import pytest

from omlogic.derive import derive_chain
from omlogic.lattice import boolean, mo
from reference import chain, unmerged_extend

FAMILIES = {"mo2": lambda: mo(2), "boolean3": lambda: boolean(3)}


@pytest.fixture(scope="session")
def short_chains():
    """``short_chains(family)`` is (lattice, chains): ``chains[k]`` holds every
    ``derive_chain`` of k = 1, 2 or 3 measurements over the nonzero elements
    of ``mo2`` or ``boolean3``, in ``itertools.product`` order, built once per
    session on one lattice of that family.  With ``unmerged=True`` the later
    stages are built by ``reference.unmerged_extend``, on a lattice of their
    own: the corpora whose answers were recorded on those trees read them.
    A test that needs a store that never saw them makes its own lattice."""

    @functools.cache
    def build(family: str, unmerged: bool = False):
        lat = FAMILIES[family]()
        nz = lat.nonzero()
        chains = {
            k: [
                chain(lat, a, ms, unmerged_extend) if unmerged else derive_chain(lat, a, ms)
                for a, *ms in itertools.product(nz, repeat=k + 1)
            ]
            for k in (1, 2, 3)
        }
        return lat, chains

    return build
