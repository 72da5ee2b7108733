from bench_e2e.cli import main

raise SystemExit(main())
