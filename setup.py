"""Legacy setup shim: this environment has no `wheel` package, so the
PEP 517 editable path is unavailable; `pip install -e .` falls back to
`setup.py develop` through this file."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "XMIT reproduction: open XML-based metadata for efficient "
        "binary HPC communication (HPDC 2001)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={
        "console_scripts": [
            "xmitgen=repro.tools.xmitgen:main",
        ],
    },
)
