"""Legacy setup shim: offline environments without `wheel` need setup.py."""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "pyyaml>=6.0"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis>=6"]},
    entry_points={"console_scripts": ["repro=repro.__main__:main"]},
)
