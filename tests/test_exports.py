import importlib
import pkgutil

import scbundles


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(scbundles.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"scbundles.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name
