// The cc1plus workload's translation unit: standard headers only, with
// enough template instantiation to give the compiler a large,
// pointer-rich heap. It is preprocessed once at set-up and then compiled
// repeatedly; the benchmark never runs the resulting program.
#include <map>
#include <string>
#include <vector>

namespace bench {

struct Record {
    std::string key;
    std::vector<int> values;
    double weight = 0;
};

template <typename K, typename V>
std::map<K, std::vector<V>>
group(const std::vector<std::pair<K, V>>& in)
{
    std::map<K, std::vector<V>> out;
    for (const auto& [k, v] : in)
        out[k].push_back(v);
    return out;
}

template <typename T>
std::string
render(const T& items)
{
    std::string out;
    for (const auto& item : items)
        out += std::to_string(item) + ',';
    return out;
}

std::map<std::string, std::string>
index_records(const std::vector<Record>& records)
{
    std::map<std::string, std::string> idx;
    for (const Record& r : records) {
        int sum = 0;
        for (const int v : r.values)
            sum += v;
        idx.emplace(r.key, std::to_string(sum));
        idx.emplace(r.key + ".w", std::to_string(r.weight));
        idx.emplace(r.key + ".s", render(r.values));
    }
    return idx;
}

std::map<int, std::vector<std::string>>
group_ints(const std::vector<std::pair<int, std::string>>& in)
{
    return group(in);
}

std::map<std::string, std::vector<double>>
group_strings(const std::vector<std::pair<std::string, double>>& in)
{
    return group(in);
}

std::string
render_all(const std::vector<int>& a, const std::vector<double>& b,
           const std::vector<long>& c)
{
    return render(a) + render(b) + render(c);
}

}  // namespace bench
