import os

from hypothesis import settings

import tropgeo

settings.register_profile("tropgeo", deadline=None, max_examples=60)
settings.load_profile("tropgeo")

# CLI tests start `python -m tropgeo.cli`; let the child import the package under test
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(tropgeo.__file__)), os.environ.get("PYTHONPATH")])
)
