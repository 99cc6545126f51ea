"""Walkthrough: parsing a dialog corpus and reading its count tables.

Parses a tiny inline JSONL corpus, then prints the rank-frequency table,
the vocabulary-growth curve and n-gram counts.
"""

import io
import json

from coreval import extract_ngrams, parse_corpus, rank_frequency, vocab_growth

DIALOGS = [
    {"id": "demo__demo__neutral__0", "condition": "neutral",
     "agent_a": "demo", "agent_b": "demo",
     "turns": [
         {"agent": "A", "text": "Have you read any good books lately?"},
         {"agent": "B", "text": "Yes! A mystery novel, a really good mystery."},
         {"agent": "A", "text": "I love a good mystery. Which novel?"},
     ]},
    {"id": "demo__demo__neutral__1", "condition": "neutral",
     "agent_a": "demo", "agent_b": "demo",
     "turns": [
         {"agent": "A", "text": "The weather is lovely today."},
         {"agent": "B", "text": "Lovely indeed, perfect for a walk."},
     ]},
]

jsonl = "\n".join(json.dumps(d) for d in DIALOGS)
corpus = parse_corpus(io.StringIO(jsonl))
print(f"parsed {len(corpus)} dialogs, "
      f"{sum(len(d.utterances) for d in corpus.dialogs)} utterances\n")

stats = rank_frequency(corpus)
print("rank-frequency (top 8):")
for rank, (token, count) in enumerate(stats.entries[:8], start=1):
    print(f"  {rank:>2}  {token:<10} {count}")
print(f"  total tokens: {stats.total_tokens}, distinct: {len(stats.entries)}\n")

curve = vocab_growth(corpus, stride=5)
print("vocabulary growth (n tokens -> v types):", list(curve.points), "\n")

table = extract_ngrams(corpus, 2)
repeated = {ng: c for ng, c in table.counts.items() if c > 1}
print(f"bigrams: {table.total_occurrences} occurrences, "
      f"{len(table.counts)} types, repeated types: {repeated}")
